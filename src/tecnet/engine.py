"""Dense float tensors with define-by-run reverse-mode differentiation.

A ``Tensor`` wraps a numpy array of the engine's compute dtype.  While a
``Tape`` is active, every operation that touches a differentiable input
appends a record holding the output, the inputs, and a closure that maps the
output gradient to input gradients.  ``backward(loss)`` replays those records
in reverse, so each node is visited exactly once regardless of fan-out.

The tape is rebuilt on every forward pass; nothing here is compiled or
cached between calls.  References run one way only: a tensor holds its
node, a node its inputs and its tape, while the tape and the node hold the
node and its output weakly.  So dropping the loss frees the whole recorded
graph by reference counting, without waiting for the cyclic collector.

Image ops take a leading batch axis: feature maps are [B, C, H, W] and
every image of the batch is processed alike, so B images cost one op call
each, not B.  The transformer branch's maps are channels-last [B, h, w, C]:
``depthwise_conv2d`` acts on their axes 1 and 2, and ``gather_tokens``
moves their C-vector tokens to cut them into windows and patches.
A layer's projection ``x @ w + b`` is one op, ``linear``, over the last axis
of x; ``matmul`` is the general batched product.

All arithmetic runs in one compute dtype, float32 unless changed with
``precision``: tensors, constants and ``shared`` arrays are made in it, so
no op widens its inputs.  Float64 is for finite-difference gradient checks
and exact oracles:

    with engine.precision(np.float64):
        ...  # build and run everything under test here
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf, expit

from .errors import ConfigurationError, DimensionError, UsageError

# Tensor-valued ops only: perfbench/tracer.py wraps every name listed here
# (less its NOT_OPS) as a primitive that returns a Tensor.  The precision
# helpers stay off the list.
__all__ = [
    "Tensor", "Tape", "backward", "as_tensor",
    "add", "sub", "mul", "div", "neg", "matmul", "linear",
    "reduce_sum", "mean_all",
    "reshape", "permute", "concat", "gather_tokens",
    "relu", "gelu", "sigmoid", "softmax", "attention", "layernorm",
    "conv2d", "depthwise_conv2d",
    "bilinear_gather",
    "global_avg_pool", "index_select",
    "upsample_nearest", "upsample_bilinear",
]


# ---------------------------------------------------------------- precision

_dtype = np.dtype(np.float32)


def compute_dtype() -> np.dtype:
    """The dtype every tensor, constant and cache is made in."""
    return _dtype


@contextmanager
def precision(dtype):
    """Run the enclosed block with compute dtype `dtype` (float32 or float64).

    Tensors made inside keep their dtype after the block exits, so a model
    must be built and run under the same precision.
    """
    global _dtype
    new = np.dtype(dtype)
    if new.char not in "fd":
        raise UsageError(f"compute dtype must be a 4- or 8-byte float, got {new}")
    old, _dtype = _dtype, new
    try:
        yield
    finally:
        _dtype = old


def constant(x) -> np.ndarray:
    """`x` as an array of the compute dtype (no copy when it already is one)."""
    return np.asarray(x, dtype=_dtype)


def shared(build):
    """Decorate a builder of constant arrays (one array or a tuple of them)
    so that it runs once per (arguments, compute dtype); every later call
    returns the same arrays, read-only, so every layer can share them."""
    @functools.cache
    def built(dtype, *args):
        out = build(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        return out

    @functools.wraps(build)
    def lookup(*args):
        return built(_dtype, *args)

    return lookup


# ---------------------------------------------------------------- tensors

class Tensor:
    """A dense array of the compute dtype plus the bookkeeping for backprop.

    ``requires_grad`` marks leaf tensors (parameters).  A leaf's ``grad``
    is None until a backward first reaches it, which allocates the buffer;
    later backwards add into it, and ``zero_grad`` clears it in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.node = None

    # -- inspection ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def values(self) -> np.ndarray:
        """Row-major flat view of the underlying storage."""
        return self.data.reshape(-1)

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar (bodies live below with the other primitives) ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self) -> "Tensor":
        return mean_all(self)

    def backward(self) -> None:
        backward(self)


# ---------------------------------------------------------------- tape

class _Node:
    """One tape record.  `out` is a weak reference: the output tensor owns
    its node, not the other way round."""

    __slots__ = ("_out", "inputs", "backward_fn", "tape", "__weakref__")

    def __init__(self, out, inputs, backward_fn, tape):
        self._out = weakref.ref(out)
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.tape = tape

    @property
    def out(self):
        return self._out()


class Tape:
    """Records operations while active.  Use as a context manager.

    The tape references its nodes weakly; ``nodes`` lists, in recording
    order, those still reachable from a live tensor.
    """

    _active: Tape | None = None       # the one tape recording now

    def __init__(self):
        self._refs = []

    @property
    def nodes(self) -> list:
        return [node for node in (ref() for ref in self._refs) if node is not None]

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            # A nested tape would capture part of the graph and leave the
            # outer backward sweep silently incomplete.
            raise UsageError("a tape is already recording; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = None


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or t.node is not None)


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Attach a tape record to `out` if recording applies."""
    tape = Tape._active
    if tape is not None and any(_tracked(t) for t in inputs):
        node = _Node(out, inputs, backward_fn, tape)
        out.node = node
        tape._refs.append(weakref.ref(node))
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss.

    Gradients accumulate into ``.grad`` of every reachable leaf, allocated
    on first use; leaves the loss does not depend on keep theirs.  Works after
    the recording tape's `with` block has exited, since every node keeps a
    reference to its tape.  Nodes keep their outputs and inputs after the
    sweep, for inspection, until the loss is dropped.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward() needs a scalar, got shape {loss.shape}")
    if loss.node is None:
        raise UsageError("backward() called on a tensor that is not on any tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(loss.node.tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for t, gi in zip(node.inputs, input_grads):
            if gi is None or not isinstance(t, Tensor):
                continue
            if t.node is not None:
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
            elif t.requires_grad:
                if t.grad is None:     # first reached, or cleared with `p.grad = None`
                    t.grad = np.zeros_like(t.data)
                t.grad += gi


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- arithmetic

def _binary(a, b, fwd, bwd_a, bwd_b):
    """Shared plumbing for elementwise binary ops with broadcasting."""
    ta = isinstance(a, Tensor)
    tb = isinstance(b, Tensor)
    av = a.data if ta else constant(a)
    bv = b.data if tb else constant(b)
    try:
        out = Tensor(fwd(av, bv))
    except ValueError as e:
        raise DimensionError(f"shapes {av.shape} and {bv.shape} do not broadcast") from e

    inputs = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def backward_fn(g):
        grads = []
        if ta:
            grads.append(_unbroadcast(bwd_a(g, av, bv), av.shape))
        if tb:
            grads.append(_unbroadcast(bwd_b(g, av, bv), bv.shape))
        return grads

    return _record(out, inputs, backward_fn)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a, b) -> Tensor:
    return _binary(a, b, np.divide,
                   lambda g, av, bv: g / bv,
                   lambda g, av, bv: -g * av / (bv * bv))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError as e:
        raise DimensionError(f"matmul batch shapes incompatible: {a.shape} vs {b.shape}") from e

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, with w [d_in, d_out] and b [d_out]:
    one gemm of x's rows, so an [h, w, C] map rounds exactly as its [h*w, C] rows."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear shapes do not fit: x {x.shape}, w {w.shape}, b {b.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    out = Tensor((rows @ w.data).reshape(x.shape[:-1] + w.shape[1:]) + b.data)

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w.data.T).reshape(x.shape), rows.T @ g2, g.sum(axis=tuple(range(g.ndim - 1)))

    return _record(out, (x, w, b), backward_fn)


# ---------------------------------------------------------------- reductions

def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axis, int):
        axes = (axis % x.ndim,)
    else:
        axes = tuple(a % x.ndim for a in axis)
    out = Tensor(np.sum(x.data, axis=axes, keepdims=keepdims))

    def backward_fn(g):
        if not keepdims:
            kshape = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
            g = g.reshape(kshape)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(out, (x,), backward_fn)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = Tensor(np.mean(x.data))
    return _record(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


# ---------------------------------------------------------------- shape ops

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.data, axes).copy())
    return _record(out, (x,), lambda g: (np.transpose(g, inv),))


def getitem(x: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing only; advanced indexing is not supported."""
    norm = key if isinstance(key, tuple) else (key,)
    for k in norm:
        if not isinstance(k, (int, np.integer, slice)) and k is not Ellipsis:
            raise UsageError("tensor indexing supports ints, slices and ellipsis only")
    out = Tensor(x.data[key])

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _record(out, (x,), backward_fn)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    axis = axis % parts[0].ndim
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as e:
        raise DimensionError(
            f"shapes {[p.shape for p in parts]} do not concatenate on axis {axis}") from e
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))

    return _record(out, tuple(parts), backward_fn)


def _zero_pad(a: np.ndarray, p: int) -> np.ndarray:
    """`a` with its trailing two axes zero-padded by p each side (np.pad costs ~20 us a call)."""
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[..., p:p + h, p:p + w] = a
    return out


def gather_tokens(x: Tensor, index: np.ndarray, inverse: np.ndarray) -> Tensor:
    """Move the C-vector tokens of x, viewed as [B', len(inverse), C], to
    [B', len(index), C]: out[:, i] = x[:, index[i]], or zero where index[i]
    is len(inverse) (padding).  `index` reads each token at most once and
    `inverse` is the reverse move, so the backward is that move of the gradient.
    """
    n, c = len(inverse), x.shape[-1]
    if x.size % (n * c):
        raise DimensionError(f"gather_tokens: {x.shape} is not a whole number of "
                             f"images of {n} tokens of {c} features")

    def move(a, idx, size):
        out = np.take(a.reshape(-1, size, c), idx, axis=1, mode="clip")
        out[:, idx == size] = 0.0
        return out

    out = Tensor(move(x.data, index, n))
    return _record(out, (x,), lambda g: (move(g, inverse, len(index)).reshape(x.shape),))


# ---------------------------------------------------------------- pointwise

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0.0),))


# Python floats, so they take the dtype of the array they meet
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) gaussian error linear unit."""
    xv = x.data
    cdf = 0.5 * (1.0 + erf(xv / _SQRT2))
    out = Tensor(xv * cdf)

    def backward_fn(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xv * xv)
        return (g * (cdf + xv * pdf),)

    return _record(out, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)
    out = Tensor(y)
    return _record(out, (x,), lambda g: (g * y * (1.0 - y),))


def _softmax_(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax of `a` along `axis`, in place; returns `a`."""
    a -= np.max(a, axis=axis, keepdims=True)
    np.exp(a, out=a)
    a /= np.sum(a, axis=axis, keepdims=True)
    return a


def _softmax_grad_(g: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Turn `g`, the gradient at softmax output `y`, into the input gradient, in place."""
    g -= np.sum(g * y, axis=axis, keepdims=True)
    g *= y
    return g


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`."""
    y = _softmax_(x.data.copy(order="K"), axis)
    out = Tensor(y)
    return _record(out, (x,), lambda g: (_softmax_grad_(g.copy(), y, axis),))


attention_probe = None   # inside `nn.capture()`, takes each forward's probabilities

# Probability entries the rank-one kernel forms at once (1 MiB in float32),
# so that each block stays in cache from its logits to its products.
RANK_ONE_BLOCK = 2**18


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
              bias: Tensor | None = None, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(D) + bias + mask) v over [n, T, D] token batches.

    Heads split the feature axes of q, k and v evenly; the scale is
    1/sqrt(D) for the full feature dim D, independent of the split.  `bias`
    is [heads, T, T] or [T, T]; `mask` is a constant [nw, T, T] additive
    array for the nw windows of one image, broadcast over the n // nw
    images whose windows make up the leading axis.  The logits are scaled,
    biased, masked, shifted by their row max and exponentiated in place in
    one [n, heads, T, T] buffer, which lives only while the output is
    computed: the single tape node keeps the per-head q, k and v, and its
    backward recomputes that buffer from them with the same ops in the same
    order.  Inside `nn.capture()` the forward's probabilities go to
    `attention_probe`.

    With one feature per head in q, k and v and neither bias nor mask
    (ACAM's cross branches), forward and backward instead walk the
    n * heads windows in blocks of whole windows, at most
    `RANK_ONE_BLOCK` probability entries or one window, through one buffer
    per pass (FlashAttention's tiling).  Each row's max is q times k's max
    or min, taken by q's sign, and a block's logits less that max are one
    K=2 BLAS product [q, -top] @ [k; 1]: BLAS adds the exact -top * 1 to
    the rounded q k, so the block rounds as q k^T - top does and the
    forward equals the general path bit for bit.  The backward works from
    the forward's output o instead of the softmax Jacobian
    (FlashAttention's dS = P(dP - rowsum(dO o))): with g the output
    gradient, dS_ij = g_i p_ij (v_j - o_i), and two thin products with each
    block's exponentials E = s p give every input gradient without forming
    dS.  Its gradients agree with the general path's to rounding (about
    1e-15 of the largest entry in float64).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3:
        raise DimensionError(f"attention expects [n, T, D] tokens, got {q.shape}")
    nw, t, d = q.shape
    if k.shape != (nw, t, d) or v.ndim != 3 or v.shape[:2] != (nw, t):
        raise ConfigurationError(f"attention operand mismatch: {q.shape}, {k.shape}, {v.shape}")
    dv = v.shape[2]
    if heads < 1 or d % heads or dv % heads:
        raise ConfigurationError(f"feature dims {d}/{dv} do not split into {heads} heads")
    if mask is not None and (mask.shape[1:] != (t, t) or nw % mask.shape[0]):
        raise ConfigurationError(f"mask {mask.shape} does not tile {nw} windows of {t} tokens")
    dh, dvh = d // heads, dv // heads
    scale = 1.0 / math.sqrt(d)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape not in ((heads, t, t), (t, t)):
            raise ConfigurationError(f"bias {bias.shape} is neither {(heads, t, t)} nor {(t, t)}")

    def split(a, dd, axes=(0, 2, 1, 3)):
        """[nw, T, heads*dd] -> contiguous per-head layout ([nw, heads, T, dd] by default)."""
        return np.ascontiguousarray(a.reshape(nw, t, heads, dd).transpose(axes))

    def merge(a, dd):
        """[nw, heads, T, dd] -> [nw, T, heads*dd]."""
        return a.transpose(0, 2, 1, 3).reshape(nw, t, heads * dd)

    qh, vh = split(q.data, dh), split(v.data, dvh)
    kt = split(k.data, dh, (0, 2, 3, 1))                 # [nw, heads, dh, T]

    if dh == dvh == 1 and bias is None and mask is None:
        n = nw * heads                                   # windows of one head each
        qn, kn, vn = qh.reshape(n, t, 1), kt.reshape(n, 1, t), vh.reshape(n, t, 1)
        per = max(1, RANK_ONE_BLOCK // (t * t))          # whole windows per block

        def exponential_blocks(per):
            """Yield each block of `per` windows with its [windows, T, T]
            exp(logits - row max), all in one buffer: every entry is at most 1
            and every row sums to at least 1."""
            top = qn * np.where(qn >= 0, kn.max(axis=-1, keepdims=True),
                                kn.min(axis=-1, keepdims=True))
            # at scale 1 the product subtracts the max; else it follows the scaling
            lhs = np.concatenate((qn, -top if scale == 1.0 else np.zeros_like(top)), axis=-1)
            rhs = np.concatenate((kn, np.ones_like(kn)), axis=1)
            top *= scale
            buf = np.empty((min(per, n), t, t), qn.dtype)
            for i in range(0, n, per):
                block = slice(i, min(i + per, n))
                e = np.matmul(lhs[block], rhs[block], out=buf[:block.stop - i])
                if scale != 1.0:
                    e *= scale
                    e -= top[block]
                yield block, np.exp(e, out=e)

        on = np.empty_like(qn)
        whole = attention_probe is not None              # the probe takes every window at once
        for block, e in exponential_blocks(n if whole else per):
            e /= np.sum(e, axis=-1, keepdims=True)
            np.matmul(e, vn[block], out=on[block])
        if whole:
            attention_probe(e.reshape(nw, heads, t, t))
        out = Tensor(merge(on.reshape(nw, heads, t, 1), 1))

        def blocked_backward(g):
            """Every [n, T, 1] gradient from each block's E and two thin
            products: R = E [v k, k, 1] and C = E^T [g/s, w, w o] with w = g q / s."""
            gn = split(g, 1).reshape(n, t, 1)
            kc = kn.reshape(n, t, 1)
            right = np.concatenate((vn * kc, kc, np.ones_like(kc)), axis=-1)
            r, left, c = (np.empty_like(right) for _ in range(3))
            for block, e in exponential_blocks(per):
                np.matmul(e, right[block], out=r[block])
                gs = np.divide(gn[block], r[block, :, 2:], out=left[block, :, :1])   # g / s
                w = np.multiply(gs, qn[block], out=left[block, :, 1:2])
                np.multiply(w, on[block], out=left[block, :, 2:])
                np.matmul(np.swapaxes(e, -1, -2), left[block], out=c[block])
            gs = left[..., :1]
            gq = scale * gs * (r[..., :1] - on * r[..., 1:2])
            gk = scale * (vn * c[..., 1:2] - c[..., 2:])
            # the v gradient stays a stride-3 view: Linear's backward product
            # rounds by its operand's layout
            return tuple(merge(a.reshape(nw, heads, t, 1), 1) for a in (gq, gk, c[..., :1]))

        return _record(out, (q, k, v), blocked_backward)

    def exponentials():
        """A fresh [nw, heads, T, T] buffer of exp(logits - row max): every
        entry is at most 1 and every row sums to at least 1."""
        a = np.matmul(qh, kt)
        if scale != 1.0:
            a *= scale
        if bias is not None:
            a += bias.data
        if mask is not None:
            per_image = a.reshape(-1, mask.shape[0], heads, t, t)   # a view: adds into a
            per_image += mask[:, None]
        a -= np.max(a, axis=-1, keepdims=True)
        return np.exp(a, out=a)

    def probabilities():
        a = exponentials()
        a /= np.sum(a, axis=-1, keepdims=True)
        return a

    a = probabilities()
    if attention_probe is not None:
        attention_probe(a)
    oh = np.matmul(a, vh)
    out = Tensor(merge(oh, dvh))

    def backward_fn(g):
        a = probabilities()
        gh = split(g, dvh)
        gv = np.matmul(np.swapaxes(a, -1, -2), gh)
        vt = np.swapaxes(vh, -1, -2)
        ga = _softmax_grad_(np.matmul(gh, vt), a)
        gb = None if bias is None else _unbroadcast(ga, bias.shape)
        if scale != 1.0:
            ga *= scale
        gq = np.matmul(ga, np.swapaxes(kt, -1, -2))
        gk = np.matmul(np.swapaxes(ga, -1, -2), qh)
        return merge(gq, dh), merge(gk, dh), merge(gv, dvh), gb

    inputs = (q, k, v) if bias is None else (q, k, v, bias)
    return _record(out, inputs, backward_fn)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layernorm gain/bias must be ({d},), got {gain.shape} and {bias.shape}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.var(x.data, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward_fn(g):
        ggain = np.sum(g * xhat, axis=tuple(range(g.ndim - 1)))
        gbias = np.sum(g, axis=tuple(range(g.ndim - 1)))
        gh = g * gain.data
        gx = inv / d * (d * gh
                        - np.sum(gh, axis=-1, keepdims=True)
                        - xhat * np.sum(gh * xhat, axis=-1, keepdims=True))
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), backward_fn)


# ---------------------------------------------------------------- convolution

def _batch_major(a: np.ndarray) -> np.ndarray:
    """[C, B, ...] -> contiguous [B, C, ...] (no copy when B is 1)."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2-D convolution (cross-correlation) of [B, C_in, H, W] with [C_out, C_in, k, k].

    The kernel must be square with odd side.  Padding is k // 2 each side,
    so the output is ((H - 1) // stride + 1) wide and high.  The taps of all
    B images form the columns of one product with the kernel.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects x [B,C,H,W] and w [O,C,k,k], got {x.shape} and {w.shape}")
    b, cin, h, wd = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"conv2d kernel must be square with odd side, got {k}x{k2}")
    if cin_w != cin:
        raise ConfigurationError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    p = k // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    # the k*k row-major taps, as slices of the padded map's trailing two axes
    taps = [(..., slice(dy, dy + stride * ho, stride), slice(dx, dx + stride * wo, stride))
            for dy in range(k) for dx in range(k)]

    def columns():
        """[C_in * k * k, B * ho * wo]: taps as rows, output positions as columns."""
        xp = _zero_pad(np.swapaxes(x.data, 0, 1), p)             # [C_in, B, Hp, Wp]
        cols = np.empty((cin, k * k, b, ho, wo), dtype=xp.dtype)
        for t, tap in enumerate(taps):
            cols[:, t] = xp[tap]
        return cols.reshape(cin * k * k, b * ho * wo)

    w2 = w.data.reshape(cout, cin * k * k)
    out = Tensor(_batch_major((w2 @ columns()).reshape(cout, b, ho, wo)) + bias.data[:, None, None])

    def backward_fn(g):
        g2 = np.swapaxes(g, 0, 1).reshape(cout, b * ho * wo)
        gw = (g2 @ columns().T).reshape(w.shape)
        gcols = (w2.T @ g2).reshape(cin, k * k, b, ho, wo)
        gxp = np.zeros((cin, b, h + 2 * p, wd + 2 * p), dtype=x.data.dtype)
        for t, tap in enumerate(taps):
            gxp[tap] += gcols[:, t]
        return np.swapaxes(gxp, 0, 1)[:, :, p:p + h, p:p + wd], gw, g.sum(axis=(0, 2, 3))

    return _record(out, (x, w, bias), backward_fn)


def depthwise_conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel 2-D convolution with same padding, stride 1, of a
    channels-last [B, H, W, C] map with w [C, k, k], k odd.

    Each of the k*k taps is a shifted slice of the padded map.  The forward
    sums each kernel row's taps left to right, then adds the rows top to
    bottom.  The weight and bias gradients sum each image's products
    pairwise, then the B image sums.
    """
    if x.ndim != 4 or w.ndim != 3:
        raise DimensionError(f"depthwise_conv2d expects x [B,H,W,C] and w [C,k,k], got {x.shape} and {w.shape}")
    b, h, wd, c = x.shape
    cw, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"depthwise kernel must be square with odd side, got {k}x{k2}")
    if cw != c:
        raise ConfigurationError(f"depthwise channel mismatch: input has {c}, kernel has {cw}")
    p = k // 2
    xp = np.zeros((b, h + 2 * p, wd + 2 * p, c), dtype=x.data.dtype)
    xp[:, p:p + h, p:p + wd] = x.data
    rows = []
    for dy in range(k):
        row = xp[:, dy:dy + h, :wd] * w.data[:, dy, 0]
        for dx in range(1, k):
            row += xp[:, dy:dy + h, dx:dx + wd] * w.data[:, dy, dx]
        rows.append(row)
    out = Tensor(sum(rows[1:], rows[0]) + bias.data)

    def backward_fn(g):
        # channel-major copies, so that each image's sums run over contiguous
        # memory: numpy sums a contiguous run pairwise, leading axes one by one
        xcm = _zero_pad(np.moveaxis(x.data, 3, 0), p)           # [C, B, Hp, Wp]
        gcm = np.ascontiguousarray(np.moveaxis(g, 3, 0))         # [C, B, H, W]

        def channel_sums(a):
            return a.reshape(c, b, h * wd).sum(axis=2).sum(axis=1)

        gw = np.empty_like(w.data)
        gxp = np.zeros((b, h + 2 * p, wd + 2 * p, c), dtype=g.dtype)
        for dy in range(k):
            for dx in range(k):
                gw[:, dy, dx] = channel_sums(gcm * xcm[:, :, dy:dy + h, dx:dx + wd])
                gxp[:, dy:dy + h, dx:dx + wd] += g * w.data[:, dy, dx]
        return gxp[:, p:p + h, p:p + wd], gw, channel_sums(gcm)

    return _record(out, (x, w, bias), backward_fn)


# ---------------------------------------------------------------- sampling

def bilinear_gather(x: Tensor, ys, xs) -> Tensor:
    """Sample each image of x [B, C, H, W] at fractional positions, zero
    outside the canvas.

    ys and xs share a shape [B, *S] and give image b's points in row b; the
    result is [B, C, *S].  Gradients flow into x and into the coordinates.

    Sampling is one sparse product for the whole batch: row i of the
    [B*|S|, B*H*W] matrix holds the bilinear weights of point i's four
    neighbours, in the order (y0, x0), (y0, x1), (y1, x0), (y1, x1), in the
    columns of its own image (offset by b*H*W), with zero weight on
    neighbours outside the canvas.  The coordinate gradients are the same
    product with the weights' derivatives in place of the weights.
    """
    if x.ndim != 4:
        raise DimensionError(f"bilinear_gather expects x [B,C,H,W], got {x.shape}")
    ys, xs = as_tensor(ys), as_tensor(xs)
    yv, xv = ys.data, xs.data
    if yv.shape != xv.shape:
        raise DimensionError(f"coordinate shapes differ: {yv.shape} vs {xv.shape}")
    b, c, h, w = x.shape
    if yv.ndim < 1 or yv.shape[0] != b:
        raise DimensionError(f"coordinates {yv.shape} do not lead with the batch of {b} images")
    s = yv.shape[1:]
    n = yv.size

    fy0 = np.floor(yv).reshape(n, 1)
    fx0 = np.floor(xv).reshape(n, 1)
    fy = yv.reshape(n, 1) - fy0                          # fractions stay in the compute dtype
    fx = xv.reshape(n, 1) - fx0
    iy = fy0.astype(np.int64)
    ix = fx0.astype(np.int64)
    cy = iy + np.array([0, 0, 1, 1])                     # [n, 4] corner rows
    cx = ix + np.array([0, 1, 0, 1])
    valid = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
    weights = np.hstack([(1.0 - fy) * (1.0 - fx), (1.0 - fy) * fx,
                         fy * (1.0 - fx), fy * fx])
    sm = csr_matrix(((weights * valid).reshape(-1), np.where(valid, cy * w + cx, 0).reshape(-1),
                     np.arange(0, 4 * n + 1, 4)), shape=(n, b * h * w))
    per_image = sm.indices.reshape(b, -1)                # a view: image b's columns
    per_image += np.arange(0, b * h * w, h * w, dtype=per_image.dtype)[:, None]   # start at b*H*W
    flat_t = np.swapaxes(x.data.reshape(b, c, h * w), 1, 2).reshape(b * h * w, c)
    out = Tensor(_batch_major((sm @ flat_t).T.reshape(c, b, n // b)).reshape((b, c) + s))

    def coordinate_grad(g_t, dweights):
        """Channel sum of g times the sample's derivative, given the [n, 4] weight derivatives."""
        d = csr_matrix(((dweights * valid).reshape(-1), sm.indices, sm.indptr), shape=sm.shape)
        return np.sum(g_t * (d @ flat_t), axis=1).reshape(yv.shape)

    def backward_fn(g):
        g_t = np.swapaxes(g.reshape(b, c, n // b), 1, 2).reshape(n, c)   # [n, C]
        gx = _batch_major((sm.T @ g_t).T.reshape(c, b, h * w)).reshape(b, c, h, w)
        return (gx, coordinate_grad(g_t, np.hstack([fx - 1.0, -fx, 1.0 - fx, fx])),
                coordinate_grad(g_t, np.hstack([fy - 1.0, 1.0 - fy, -fy, fy])))

    return _record(out, (x, ys, xs), backward_fn)


# ---------------------------------------------------------------- pooling etc.

def global_avg_pool(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, C] spatial mean."""
    if x.ndim != 4:
        raise DimensionError(f"global_avg_pool expects [B,C,H,W], got {x.shape}")
    h, w = x.shape[2:]
    out = Tensor(x.data.mean(axis=(2, 3)))

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.shape).copy(),)

    return _record(out, (x,), backward_fn)


def index_select(table: Tensor, indices) -> Tensor:
    """Gather rows of a [T, E] table; duplicate rows accumulate gradient."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise UsageError("index_select needs integer indices")
    out = Tensor(table.data[idx])

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), backward_fn)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Integer-factor nearest-neighbour upsampling of [B, C, H, W]."""
    if x.ndim != 4:
        raise DimensionError(f"upsample_nearest expects [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    f = int(factor)
    out = Tensor(np.repeat(np.repeat(x.data, f, axis=2), f, axis=3))

    def backward_fn(g):
        return (g.reshape(b, c, h, f, w, f).sum(axis=(3, 5)),)

    return _record(out, (x,), backward_fn)


@shared
def _upsample_matrix(n: int, f: int) -> np.ndarray:
    """Dense [n*f, n] interpolation matrix (half-pixel centres, clamped edges)."""
    out_n = n * f
    src = (np.arange(out_n) + 0.5) / f - 0.5
    src = np.clip(src, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n - 1)
    mat = np.zeros((out_n, n), dtype=_dtype)
    mat[np.arange(out_n), i0] += 1.0 - frac
    mat[np.arange(out_n), i1] += frac
    return mat


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Integer-factor bilinear upsampling of [B, C, H, W]."""
    if x.ndim != 4:
        raise DimensionError(f"upsample_bilinear expects [B,C,H,W], got {x.shape}")
    h, w = x.shape[2:]
    f = int(factor)
    wy = _upsample_matrix(h, f)
    wx = _upsample_matrix(w, f)
    out = Tensor(np.einsum("oh,bchw,pw->bcop", wy, x.data, wx, optimize=True))

    def backward_fn(g):
        return (np.einsum("oh,bcop,pw->bchw", wy, g, wx, optimize=True),)

    return _record(out, (x,), backward_fn)
