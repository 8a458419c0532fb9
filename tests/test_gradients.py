"""Finite-difference checks for every differentiable primitive.

Each case builds a scalar function of one or more leaf tensors and compares
the tape gradient against central differences.  Shapes are small so the
whole sweep runs in seconds; the composed-module sweeps live with their
modules and in the acceptance suite.
"""

import numpy as np
import pytest

from oracles import bilinear_gather_loop, bilinear_image_grad_bincount
from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.attention import window_tokens
from tecnet.engine import _record
from tecnet.errors import DimensionError, UsageError
from tecnet.gradcheck import check_gradients, max_rel_err

# finite differences and exact oracles: every tensor here is float64
pytestmark = pytest.mark.usefixtures("float64")
TOL = 1e-4
RNG = np.random.default_rng(20240817)


def leaf(*shape, scale=1.0):
    return Tensor(scale * RNG.standard_normal(shape), requires_grad=True)


def run(fn, *leaves, tol=TOL):
    rows = check_gradients(fn, [(f"t{i}", t) for i, t in enumerate(leaves)])
    worst = max_rel_err(rows)
    assert worst < tol, f"worst relative error {worst:.3e}"


# --------------------------------------------------------------- arithmetic

def test_add_sub_mul_div_neg():
    a, b = leaf(3, 4), leaf(3, 4)
    c = Tensor(RNG.standard_normal((3, 4)) + 3.0, requires_grad=True)
    run(lambda: ((a + b) * (a - b) / c - (-a)).sum(), a, b, c)


def test_broadcast_arithmetic():
    a = leaf(2, 3, 4)
    b = leaf(4)       # trailing broadcast
    c = leaf(3, 1)    # middle broadcast
    run(lambda: ((a * b + c) * (a + 2.0)).sum(), a, b, c)


def test_matmul_2d_and_batched():
    a, b = leaf(3, 4), leaf(4, 5)
    run(lambda: (a @ b).sum(), a, b)
    p, q = leaf(2, 3, 4), leaf(2, 4, 5)
    w = Tensor(RNG.standard_normal((2, 3, 5)))
    run(lambda: ((p @ q) * w).sum(), p, q)


def test_linear_over_leading_axes_is_one_flat_product():
    """`linear` multiplies the flattened rows in one product and adds the
    bias after, so a channels-last map gives bit for bit what its [N, C]
    rows give."""
    a, w, b = leaf(2, 3, 4, 5), leaf(5, 6), leaf(6)
    g = RNG.standard_normal((2, 3, 4, 6))
    with Tape():
        y = E.linear(a, w, b)
        backward((y * Tensor(g)).sum())
    rows, g_rows = a.data.reshape(24, 5), g.reshape(24, 6)
    np.testing.assert_array_equal(y.data, (rows @ w.data).reshape(2, 3, 4, 6) + b.data)
    np.testing.assert_array_equal(a.grad, (g_rows @ w.data.T).reshape(2, 3, 4, 5))
    np.testing.assert_array_equal(w.grad, rows.T @ g_rows)
    np.testing.assert_array_equal(b.grad, g.sum(axis=(0, 1, 2)))
    np.testing.assert_allclose(y.data, np.matmul(a.data, w.data) + b.data, rtol=1e-12)
    for t in (a, w, b):
        t.zero_grad()
    run(lambda: (E.linear(a, w, b) * Tensor(g)).sum(), a, w, b)


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [((2, 4), (5, 6), (6,)),
                                                     ((2, 5), (5, 6), (5,)),
                                                     ((2, 5), (5, 6), (1, 6))],
                         ids=["x_against_w", "b_length", "b_rank"])
def test_linear_names_the_shapes_that_do_not_fit(x_shape, w_shape, b_shape):
    x, w, b = (Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape))
    with pytest.raises(DimensionError, match=r"x \(2, \d\).*w \(5, 6\).*b \("):
        E.linear(x, w, b)


def test_reductions():
    a = leaf(2, 3, 4)
    run(lambda: E.reduce_sum(a), a)
    run(lambda: E.reduce_sum(a, axis=1).sum(), a)
    run(lambda: E.reduce_sum(a, axis=(0, 2), keepdims=True).sum(), a)
    run(lambda: E.mean_all(a) * 3.0, a)


def test_shape_ops():
    a = leaf(2, 3, 4)
    w = Tensor(RNG.standard_normal((4, 6)))
    run(lambda: (a.reshape(4, 6) * w).sum(), a)
    m = Tensor(RNG.standard_normal((3, 2)))
    run(lambda: (a.permute(2, 0, 1).reshape(8, 3) @ m).sum(), a)


def test_getitem_and_concat():
    a, b = leaf(3, 4), leaf(2, 4)
    w = Tensor(RNG.standard_normal((5, 4)))
    run(lambda: (E.concat([a, b], axis=0) * w).sum(), a, b)
    run(lambda: (a[1:, :2] * a[:2, 2:]).sum(), a)


def test_gather_tokens():
    """Both moves of a padded, shifted window cut: a 3x5 map, window 2 and
    shift 1, so 24 window tokens of which 9 are padding."""
    a = leaf(2, 3, 5, 3)
    slots, homes = window_tokens(3, 5, 2, 1)
    w = Tensor(RNG.standard_normal((2, 24, 3)))
    run(lambda: (E.gather_tokens(a, slots, homes) * w).sum(), a)
    wins = leaf(2, 24, 3)
    w2 = Tensor(RNG.standard_normal((2, 15, 3)))
    run(lambda: (E.gather_tokens(wins, homes, slots) * w2).sum(), wins)
    run(lambda: (E.gather_tokens(E.gather_tokens(a, slots, homes) * w, homes, slots)
                 * w2).sum(), a)


def test_activations():
    a = leaf(3, 4)
    b = Tensor(RNG.standard_normal((3, 4)) + 0.3, requires_grad=True)  # off kink
    run(lambda: E.relu(b).sum(), b)
    run(lambda: E.gelu(a).sum(), a)
    run(lambda: E.sigmoid(a).sum(), a)


def test_softmax_and_layernorm():
    a = leaf(3, 5)
    w = Tensor(RNG.standard_normal((3, 5)))
    run(lambda: (E.softmax(a, axis=-1) * w).sum(), a)
    run(lambda: (E.softmax(a, axis=0) * w).sum(), a)
    g, b = leaf(5), leaf(5)
    run(lambda: (E.layernorm(a, g, b) * w).sum(), a, g, b)


def test_attention():
    q, k, v = leaf(2, 4, 4), leaf(2, 4, 4), leaf(2, 4, 6)
    bias = leaf(2, 4, 4, scale=0.5)
    mask = np.where(RNG.random((2, 4, 4)) < 0.3, -1e9, 0.0)
    w = Tensor(RNG.standard_normal((2, 4, 6)))
    run(lambda: (E.attention(q, k, v, heads=2, bias=bias, mask=mask) * w).sum(), q, k, v, bias)
    run(lambda: (E.attention(q, q, v) * w).sum(), q, v)


def test_conv2d_variants():
    x = leaf(2, 2, 6, 6)
    w = leaf(3, 2, 3, 3, scale=0.5)
    b = leaf(3)
    wt = Tensor(RNG.standard_normal((2, 3, 6, 6)))
    run(lambda: (E.conv2d(x, w, b, stride=1) * wt).sum(), x, w, b)
    wt2 = Tensor(RNG.standard_normal((2, 3, 3, 3)))
    run(lambda: (E.conv2d(x, w, b, stride=2) * wt2).sum(), x, w, b)
    w1 = leaf(3, 2, 1, 1, scale=0.5)           # the model's skip, fuse and head convs
    run(lambda: (E.conv2d(x, w1, b) * wt).sum(), x, w1, b)


def test_depthwise_conv2d():
    x = leaf(2, 5, 5, 3)
    w = leaf(3, 3, 3, scale=0.5)
    b = leaf(3)
    wt = Tensor(RNG.standard_normal((2, 5, 5, 3)))
    run(lambda: (E.depthwise_conv2d(x, w, b) * wt).sum(), x, w, b)


def test_bilinear_gather():
    x = leaf(2, 2, 5, 5)
    # keep sample points clear of integer lattice lines, where the
    # interpolant has kinks and central differences straddle them
    ys = Tensor(RNG.uniform(0.3, 3.6, (2, 7)) + 0.07, requires_grad=True)
    xs = Tensor(RNG.uniform(0.3, 3.6, (2, 7)) + 0.13, requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 2, 7)))
    run(lambda: (E.bilinear_gather(x, ys, xs) * w).sum(), x, ys, xs)


def test_bilinear_gather_out_of_canvas():
    x = leaf(1, 1, 4, 4)
    ys = Tensor([[-2.3, 1.4, 5.7]], requires_grad=True)  # two points outside
    xs = Tensor([[0.6, 1.8, 9.2]], requires_grad=True)
    w = Tensor(RNG.standard_normal((1, 1, 3)))
    run(lambda: (E.bilinear_gather(x, ys, xs) * w).sum(), x, ys, xs)


def test_pool_select_upsample():
    x = leaf(2, 3, 4, 4)
    run(lambda: (E.global_avg_pool(x) * Tensor([[1.0, -2.0, 0.5], [0.3, 1.0, -0.7]])).sum(), x)
    table = leaf(6, 3)
    idx = np.array([0, 2, 2, 5])
    w = Tensor(RNG.standard_normal((4, 3)))
    run(lambda: (E.index_select(table, idx) * w).sum(), table)
    w2 = Tensor(RNG.standard_normal((2, 3, 8, 8)))
    run(lambda: (E.upsample_nearest(x, 2) * w2).sum(), x)
    run(lambda: (E.upsample_bilinear(x, 2) * w2).sum(), x)


# --------------------------------------------------------------- oracles

def test_matmul_known_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_softmax_known_values():
    out = E.softmax(Tensor([10.0, 0.0])).data
    np.testing.assert_allclose(
        out, [0.9999546021312976, 4.5397868702434395e-05], rtol=0, atol=1e-16)
    assert abs(out.sum() - 1.0) < 1e-15


def test_gelu_known_values():
    # x * Phi(x) with the exact normal CDF
    out = E.gelu(Tensor([0.0, 1.0, -1.0])).data
    np.testing.assert_allclose(
        out, [0.0, 0.8413447460685429, -0.15865525393145707], atol=1e-15)


def test_conv2d_against_loop():
    x = Tensor(RNG.standard_normal((2, 2, 5, 5)))
    w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
    b = Tensor(RNG.standard_normal(3))
    got = E.conv2d(x, w, b, stride=2).data

    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.empty_like(got)
    for n, o, i, j in np.ndindex(got.shape):
        acc = b.data[o]
        for c in range(2):
            for u in range(3):
                for v in range(3):
                    acc += w.data[o, c, u, v] * xp[n, c, 2 * i + u, 2 * j + v]
        want[n, o, i, j] = acc
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_depthwise_conv2d_against_loop():
    """Output and all three gradients of a channels-last depthwise conv
    against per-pixel loops."""
    x = Tensor(RNG.standard_normal((2, 5, 4, 3)), requires_grad=True)
    w = Tensor(RNG.standard_normal((3, 3, 3)), requires_grad=True)
    b = Tensor(RNG.standard_normal(3), requires_grad=True)
    g = RNG.standard_normal((2, 5, 4, 3))
    with Tape():
        y = E.depthwise_conv2d(x, w, b)
        loss = (y * Tensor(g)).sum()
    backward(loss)

    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want, gxp = np.empty_like(y.data), np.zeros_like(xp)
    gw, gb = np.zeros_like(w.data), np.zeros_like(b.data)
    for n, i, j, c in np.ndindex(y.shape):
        acc = b.data[c]
        gb[c] += g[n, i, j, c]
        for u in range(3):
            for v in range(3):
                acc += w.data[c, u, v] * xp[n, i + u, j + v, c]
                gw[c, u, v] += g[n, i, j, c] * xp[n, i + u, j + v, c]
                gxp[n, i + u, j + v, c] += g[n, i, j, c] * w.data[c, u, v]
        want[n, i, j, c] = acc
    for got, ref in ((y.data, want), (x.grad, gxp[:, 1:-1, 1:-1]), (w.grad, gw), (b.grad, gb)):
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_depthwise_conv2d_float32_gradient_sums_are_pairwise():
    """The weight and bias gradients each sum B*H*W products.  For 32768
    products of 0.1 in float32, a running sum over the leading axes of the
    [8, 64, 64, C] map gives 3277.65; a pairwise sum gives 3276.8005."""
    with E.precision(np.float32):
        x = Tensor(np.ones((8, 64, 64, 2)))
        w = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        with Tape():
            loss = (E.depthwise_conv2d(x, w, b) * Tensor(np.full(x.shape, 0.1))).sum()
        backward(loss)
    np.testing.assert_allclose(b.grad, 3276.8, rtol=0, atol=1e-2)
    np.testing.assert_allclose(w.grad[:, 1, 1], 3276.8, rtol=0, atol=1e-2)


def test_bilinear_gather_against_loop():
    """The sparse-matrix sampler equals a per-point loop exactly, including
    points off the canvas, on integer coordinates and on the last row and
    column; its image gradient equals the bincount scatter to 1e-12.  Row b
    of the coordinates samples image b."""
    h, w = 5, 6
    x = Tensor(RNG.standard_normal((2, 3, h, w)), requires_grad=True)
    ys = np.array([[-2.3, -0.5, -1.0, 0.0, 2.0, 4.0, 4.0],
                   [4.5, 3.25, 5.0, 1.7, 9.0, 0.4, 2.5]])
    xs = np.array([[1.5, 0.25, 3.0, 0.0, 5.0, 2.0, 5.0],
                   [2.5, 5.5, 1.0, -0.6, 1.0, 6.0, 4.75]])
    g = RNG.standard_normal((2, 3, 7))
    with Tape():
        out = E.bilinear_gather(x, ys, xs)
        loss = (out * Tensor(g)).sum()
    backward(loss)
    assert np.array_equal(out.data, [bilinear_gather_loop(x.data[b], ys[b], xs[b]) for b in range(2)])
    want = np.stack([bilinear_image_grad_bincount(g[b], ys[b], xs[b], x.shape[1:])
                     for b in range(2)])
    assert np.max(np.abs(x.grad - want)) <= 1e-12 * np.max(np.abs(want))


def test_layernorm_normalizes():
    x = Tensor(RNG.standard_normal((4, 8)) * 3 + 2)
    out = E.layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


# ----------------------------------------------------- harness sensitivity

def test_checker_flags_a_wrong_backward():
    """The finite-difference harness must catch a deliberately broken rule."""

    def bad_square(t):
        out = Tensor(t.data ** 2)
        return _record(out, (t,), lambda g: (g * 3.0 * t.data,))  # wrong: 3x not 2x

    t = Tensor(RNG.standard_normal(4) + 2.0, requires_grad=True)
    rows = check_gradients(lambda: bad_square(t).sum(), [("t", t)])
    assert max_rel_err(rows) > 1e-2


def test_checker_refuses_float32_leaves():
    """A float32 central difference at h = 1e-4 is off by about 1e-3, so the
    harness refuses such a leaf instead of judging it."""
    with E.precision(np.float32):
        t = Tensor(RNG.standard_normal(4), requires_grad=True)
    with pytest.raises(UsageError, match=r"engine\.precision\(np\.float64\)"):
        check_gradients(lambda: (t * t).sum(), [("t", t)])
