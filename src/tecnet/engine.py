"""Dense float tensors with define-by-run reverse-mode differentiation.

A ``Tensor`` wraps a numpy array of the engine's compute dtype.  While a
``Tape`` is active, every operation that touches a differentiable input
appends a record holding the output, the inputs, and a closure that maps the
output gradient to input gradients.  ``backward(loss)`` replays those records
in reverse, so each node is visited exactly once regardless of fan-out.

The tape is rebuilt on every forward pass; nothing here is compiled or
cached between calls.

All arithmetic runs in one compute dtype, float32 unless changed with
``precision``: tensors, constants and cached masks and matrices are made in
it, so no op widens its inputs.  Float64 is for finite-difference gradient
checks and exact oracles:

    with engine.precision(np.float64):
        ...  # build and run everything under test here
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.sparse import csr_matrix
from scipy.special import erf, expit

from .errors import ConfigurationError, DimensionError, UsageError

# Tensor-valued ops only: perfbench/tracer.py wraps every name listed here
# (less its NOT_OPS) as a primitive that returns a Tensor.  The precision
# helpers stay off the list.
__all__ = [
    "Tensor", "Tape", "backward", "as_tensor",
    "add", "sub", "mul", "div", "neg", "matmul",
    "reduce_sum", "mean_all",
    "reshape", "permute", "concat", "pad2d", "roll2d",
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


# ---------------------------------------------------------------- tensors

class Tensor:
    """A dense array of the compute dtype plus the bookkeeping for backprop.

    ``requires_grad`` marks leaf tensors (parameters).  Leaves get a
    pre-allocated ``grad`` buffer so that parameters untouched by a given
    loss report an exact zero gradient rather than None.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_dtype)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
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
    __slots__ = ("out", "inputs", "backward_fn", "tape")

    def __init__(self, out, inputs, backward_fn, tape):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.tape = tape


class Tape:
    """Records operations while active.  Use as a context manager."""

    _stack: list = []

    def __init__(self):
        self.nodes = []

    def __enter__(self) -> "Tape":
        if Tape._stack:
            # A nested tape would capture part of the graph and leave the
            # outer backward sweep silently incomplete.
            raise UsageError("a tape is already recording; tapes do not nest")
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._stack.pop()

    @staticmethod
    def active():
        return Tape._stack[-1] if Tape._stack else None


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or t.node is not None)


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Attach a tape record to `out` if recording applies."""
    tape = Tape.active()
    if tape is not None and any(_tracked(t) for t in inputs):
        node = _Node(out, inputs, backward_fn, tape)
        out.node = node
        tape.nodes.append(node)
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss.

    Gradients accumulate into ``.grad`` of every reachable leaf; leaves the
    loss does not depend on keep their zero buffer untouched.  Works after
    the recording tape's `with` block has exited, since every node keeps a
    reference to its tape.
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
                if t.grad is None:
                    # a buffer cleared the torch way (`p.grad = None`)
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
    if b.ndim == 2:
        # one gemm over all leading positions: an [h, w, C] map rounds exactly as its [h*w, C] rows
        a2 = a.data.reshape(-1, a.shape[-1])
        out = Tensor((a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:]))

        def backward_fn(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

        return _record(out, (a, b), backward_fn)
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError as e:
        raise DimensionError(f"matmul batch shapes incompatible: {a.shape} vs {b.shape}") from e

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), backward_fn)


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
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))

    return _record(out, tuple(parts), backward_fn)


def pad2d(x: Tensor, top: int, bottom: int, left: int, right: int) -> Tensor:
    """Zero-pad the trailing two axes."""
    pads = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    out = Tensor(np.pad(x.data, pads))
    h, w = x.shape[-2], x.shape[-1]

    def backward_fn(g):
        sl = (Ellipsis, slice(top, top + h), slice(left, left + w))
        return (g[sl],)

    return _record(out, (x,), backward_fn)


def roll2d(x: Tensor, shift_y: int, shift_x: int) -> Tensor:
    """Cyclically shift the trailing two axes."""
    out = Tensor(np.roll(x.data, (shift_y, shift_x), axis=(-2, -1)))
    return _record(out, (x,),
                   lambda g: (np.roll(g, (-shift_y, -shift_x), axis=(-2, -1)),))


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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
              bias: Tensor | None = None, mask: np.ndarray | None = None,
              probs: list | None = None) -> Tensor:
    """softmax(q k^T / sqrt(D) + bias + mask) v over [nw, T, D] token batches.

    Heads split the feature axes of q, k and v evenly; the scale is
    1/sqrt(D) for the full feature dim D, independent of the split.  `bias`
    is [heads, T, T] or [T, T]; `mask` is a constant [nw, T, T] additive
    array.  The logits are scaled, biased, masked and normalised in place in
    one [nw, heads, T, T] buffer, which the single tape node keeps as the
    probabilities for its backward.  When `probs` is a list, a copy of those
    probabilities is appended to it.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3:
        raise DimensionError(f"attention expects [nw, T, D] tokens, got {q.shape}")
    nw, t, d = q.shape
    if k.shape != (nw, t, d) or v.ndim != 3 or v.shape[:2] != (nw, t):
        raise ConfigurationError(f"attention operand mismatch: {q.shape}, {k.shape}, {v.shape}")
    dv = v.shape[2]
    if d % heads or dv % heads:
        raise ConfigurationError(f"feature dims {d}/{dv} not divisible by {heads} heads")
    dh, dvh = d // heads, dv // heads
    scale = 1.0 / math.sqrt(d)

    def split(a, dd, axes=(0, 2, 1, 3)):
        """[nw, T, heads*dd] -> contiguous per-head layout ([nw, heads, T, dd] by default)."""
        return np.ascontiguousarray(a.reshape(nw, t, heads, dd).transpose(axes))

    def merge(a, dd):
        """[nw, heads, T, dd] -> [nw, T, heads*dd]."""
        return a.transpose(0, 2, 1, 3).reshape(nw, t, heads * dd)

    qh, vh = split(q.data, dh), split(v.data, dvh)
    kt = split(k.data, dh, (0, 2, 3, 1))                 # [nw, heads, dh, T]
    a = np.matmul(qh, kt)                                # [nw, heads, T, T]
    a *= scale
    if bias is not None:
        bias = as_tensor(bias)
        a += bias.data
    if mask is not None:
        a += mask.reshape(nw, 1, t, t)
    _softmax_(a)
    if probs is not None:
        probs.append(a.copy())
    out = Tensor(merge(np.matmul(a, vh), dvh))

    def backward_fn(g):
        gh = split(g, dvh)
        gv = np.matmul(np.swapaxes(a, -1, -2), gh)
        ga = _softmax_grad_(np.matmul(gh, np.swapaxes(vh, -1, -2)), a)
        gb = None if bias is None else _unbroadcast(ga, bias.shape)
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

def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """View a padded [C, Hp, Wp] image as [C, k, k, ho, wo] sliding windows."""
    c = xp.shape[0]
    s0, s1, s2 = xp.strides
    shape = (c, k, k, ho, wo)
    strides = (s0, s1, s2, s1 * stride, s2 * stride)
    return as_strided(xp, shape=shape, strides=strides)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of [C_in, H, W] with [C_out, C_in, k, k].

    The kernel must be square with odd side.  Output extents follow the
    usual floor rule, (h + 2p - k) // stride + 1; at least one full window
    must fit, otherwise the configuration is rejected.
    """
    if x.ndim != 3 or w.ndim != 4:
        raise DimensionError(f"conv2d expects x [C,H,W] and w [O,C,k,k], got {x.shape} and {w.shape}")
    cin, h, wd = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"conv2d kernel must be square with odd side, got {k}x{k2}")
    if cin_w != cin:
        raise ConfigurationError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    if h + 2 * padding < k or wd + 2 * padding < k:
        raise ConfigurationError(
            f"conv2d window never fits: input {h}x{wd}, k={k}, padding={padding}")
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1

    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(xp, k, stride, ho, wo).reshape(cin * k * k, ho * wo)
    w2 = w.data.reshape(cout, cin * k * k)
    y = (w2 @ cols).reshape(cout, ho, wo)
    if bias is not None:
        y = y + bias.data[:, None, None]
    out = Tensor(y)

    def backward_fn(g):
        g2 = g.reshape(cout, ho * wo)
        gw = (g2 @ cols.T).reshape(w.shape)
        gcols = (w2.T @ g2).reshape(cin, k, k, ho, wo)
        gxp = np.zeros_like(xp)
        for dy in range(k):
            for dx in range(k):
                gxp[:, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += gcols[:, dy, dx]
        gx = gxp[:, padding:padding + h, padding:padding + wd] if padding else gxp
        if bias is not None:
            return gx, gw, g.sum(axis=(1, 2))
        return gx, gw

    inputs = (x, w, bias) if bias is not None else (x, w)
    return _record(out, inputs, backward_fn)


def depthwise_conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-channel 2-D convolution with same padding, stride 1.

    x is [C, H, W], w is [C, k, k] with k odd.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise DimensionError(f"depthwise_conv2d expects x [C,H,W] and w [C,k,k], got {x.shape} and {w.shape}")
    c, h, wd = x.shape
    cw, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"depthwise kernel must be square with odd side, got {k}x{k2}")
    if cw != c:
        raise ConfigurationError(f"depthwise channel mismatch: input has {c}, kernel has {cw}")
    p = k // 2
    xp = np.pad(x.data, ((0, 0), (p, p), (p, p)))
    win = _im2col(xp, k, 1, h, wd)            # [C, k, k, H, W]
    y = np.einsum("ckl,cklhw->chw", w.data, win)
    if bias is not None:
        y = y + bias.data[:, None, None]
    out = Tensor(y)

    def backward_fn(g):
        gw = np.einsum("chw,cklhw->ckl", g, win)
        gxp = np.zeros_like(xp)
        for dy in range(k):
            for dx in range(k):
                gxp[:, dy:dy + h, dx:dx + wd] += g * w.data[:, dy, dx][:, None, None]
        gx = gxp[:, p:p + h, p:p + wd]
        if bias is not None:
            return gx, gw, g.sum(axis=(1, 2))
        return gx, gw

    inputs = (x, w, bias) if bias is not None else (x, w)
    return _record(out, inputs, backward_fn)


# ---------------------------------------------------------------- sampling

def bilinear_gather(x: Tensor, ys, xs) -> Tensor:
    """Sample x [C, H, W] at fractional positions, zero outside the canvas.

    ys and xs share an arbitrary shape S; the result is [C, *S].  Gradients
    flow into x and, when ys/xs are tensors, into the coordinates as well.

    Sampling is one sparse product: row i of the [|S|, H*W] matrix holds the
    bilinear weights of point i's four neighbours, in the order (y0, x0),
    (y0, x1), (y1, x0), (y1, x1), with zero weight on neighbours outside the
    canvas.  The coordinate gradients are the same product with the weights'
    derivatives in place of the weights.
    """
    if x.ndim != 3:
        raise DimensionError(f"bilinear_gather expects x [C,H,W], got {x.shape}")
    ty = isinstance(ys, Tensor)
    tx = isinstance(xs, Tensor)
    yv = ys.data if ty else constant(ys)
    xv = xs.data if tx else constant(xs)
    if yv.shape != xv.shape:
        raise DimensionError(f"coordinate shapes differ: {yv.shape} vs {xv.shape}")
    c, h, w = x.shape
    s = yv.shape
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
                     np.arange(0, 4 * n + 1, 4)), shape=(n, h * w))
    flat_t = x.data.reshape(c, h * w).T                  # [H*W, C]
    out = Tensor(np.ascontiguousarray((sm @ flat_t).T).reshape((c,) + s))

    def coordinate_grad(g_t, dweights):
        """Channel sum of g times the sample's derivative, given the [n, 4] weight derivatives."""
        d = csr_matrix(((dweights * valid).reshape(-1), sm.indices, sm.indptr), shape=sm.shape)
        return np.sum(g_t * (d @ flat_t), axis=1).reshape(s)

    def backward_fn(g):
        g_t = g.reshape(c, n).T                          # [n, C]
        grads = [np.ascontiguousarray((sm.T @ g_t).T).reshape(c, h, w)]
        if ty:
            grads.append(coordinate_grad(g_t, np.hstack([fx - 1.0, -fx, 1.0 - fx, fx])))
        if tx:
            grads.append(coordinate_grad(g_t, np.hstack([fy - 1.0, 1.0 - fy, -fy, fy])))
        return grads

    inputs = (x,) + tuple(t for t, used in ((ys, ty), (xs, tx)) if used)
    return _record(out, inputs, backward_fn)


# ---------------------------------------------------------------- pooling etc.

def global_avg_pool(x: Tensor) -> Tensor:
    """[C, H, W] -> [C] spatial mean."""
    if x.ndim != 3:
        raise DimensionError(f"global_avg_pool expects [C,H,W], got {x.shape}")
    c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(1, 2)))

    def backward_fn(g):
        return (np.broadcast_to(g[:, None, None] / (h * w), x.shape).copy(),)

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
    """Integer-factor nearest-neighbour upsampling of [C, H, W]."""
    if x.ndim != 3:
        raise DimensionError(f"upsample_nearest expects [C,H,W], got {x.shape}")
    c, h, w = x.shape
    f = int(factor)
    out = Tensor(np.repeat(np.repeat(x.data, f, axis=1), f, axis=2))

    def backward_fn(g):
        return (g.reshape(c, h, f, w, f).sum(axis=(2, 4)),)

    return _record(out, (x,), backward_fn)


_BILINEAR_MATS: dict = {}


def _upsample_matrix(n: int, f: int) -> np.ndarray:
    """Dense [n*f, n] interpolation matrix (half-pixel centres, clamped edges)."""
    key = (n, f, _dtype)
    mat = _BILINEAR_MATS.get(key)
    if mat is None:
        out_n = n * f
        src = (np.arange(out_n) + 0.5) / f - 0.5
        src = np.clip(src, 0.0, n - 1.0)
        i0 = np.floor(src).astype(np.int64)
        frac = src - i0
        i1 = np.minimum(i0 + 1, n - 1)
        mat = np.zeros((out_n, n), dtype=_dtype)
        mat[np.arange(out_n), i0] += 1.0 - frac
        mat[np.arange(out_n), i1] += frac
        _BILINEAR_MATS[key] = mat
    return mat


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Integer-factor bilinear upsampling of [C, H, W]."""
    if x.ndim != 3:
        raise DimensionError(f"upsample_bilinear expects [C,H,W], got {x.shape}")
    c, h, w = x.shape
    f = int(factor)
    wy = _upsample_matrix(h, f)
    wx = _upsample_matrix(w, f)
    out = Tensor(np.einsum("oh,chw,pw->cop", wy, x.data, wx, optimize=True))

    def backward_fn(g):
        return (np.einsum("oh,cop,pw->chw", wy, g, wx, optimize=True),)

    return _record(out, (x,), backward_fn)
