"""Window machinery, masks, four-branch attention, and the cost model."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import attention_reference
from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.attention import (ACAM, WindowAttention, cost_acam, cost_msa,
                              cost_swmsa, padded, relative_position_index,
                              shift_mask, window_tokens, windowed)
from tecnet.ddconv import tap_grid
from tecnet.errors import ConfigurationError, DimensionError
from tecnet.gradcheck import check_gradients, max_rel_err
from tecnet.model import N_STAGES, TecNet, attention_rows, nano_config
from tecnet.nn import capture

# finite differences and exact oracles: every tensor here is float64
pytestmark = pytest.mark.usefixtures("float64")
RNG = np.random.default_rng(99)
BRANCHES = ("spatial", "channel", "cross_h", "cross_w")   # ACAM's attention call order


# ------------------------------------------------------------- window cuts

@pytest.mark.parametrize("hw", [8, 16, 28])
@pytest.mark.parametrize("m", [4, 7])
@pytest.mark.parametrize("shifted", [False, True])
def test_window_cut_roundtrip(hw, m, shifted):
    """The cut and its reverse move invert each other exactly, padding
    included; the windows of both images share one window axis, and every
    padding token reads zero."""
    x = Tensor(RNG.standard_normal((2, hw, hw, 3)))
    slots, homes = window_tokens(hw, hw, m, m // 2 if shifted else 0)
    g = padded(hw, m)
    assert slots.shape == (g * g,) and homes.shape == (hw * hw,)
    np.testing.assert_array_equal(slots[homes], np.arange(hw * hw))
    wins = E.gather_tokens(x, slots, homes)
    assert wins.reshape(-1, m, m, 3).shape == (2 * (g // m) ** 2, m, m, 3)
    pad = slots == hw * hw
    assert pad.sum() == g * g - hw * hw
    assert np.all(wins.data[:, pad] == 0)
    back = E.gather_tokens(wins, homes, slots)
    assert np.array_equal(back.data.reshape(x.shape), x.data)


def test_window_cut_layout_is_row_major_windows():
    # 2 images, 4x4 grid, 1 channel, window 2: window 0 must be the first
    # image's top-left block, and the second image's windows follow the first's
    x = Tensor(np.arange(32.0).reshape(2, 4, 4, 1))
    w = E.gather_tokens(x, *window_tokens(4, 4, 2, 0)).reshape(-1, 2, 2, 1)
    np.testing.assert_array_equal(w.data[0, ..., 0], [[0, 1], [4, 5]])
    np.testing.assert_array_equal(w.data[1, ..., 0], [[2, 3], [6, 7]])
    np.testing.assert_array_equal(w.data[2, ..., 0], [[8, 9], [12, 13]])
    np.testing.assert_array_equal(w.data[4, ..., 0], [[16, 17], [20, 21]])
    # shifted by 1, the map rolls up and left: the wrap lands in the last window
    w = E.gather_tokens(x, *window_tokens(4, 4, 2, 1)).reshape(-1, 2, 2, 1)
    np.testing.assert_array_equal(w.data[0, ..., 0], [[5, 6], [9, 10]])
    np.testing.assert_array_equal(w.data[3, ..., 0], [[15, 12], [3, 0]])
    np.testing.assert_array_equal(w.data[7, ..., 0], [[31, 28], [19, 16]])


def test_gather_tokens_needs_whole_images():
    slots, homes = window_tokens(3, 5, 2, 1)                # images of 15 tokens
    with pytest.raises(DimensionError, match="15 tokens"):
        E.gather_tokens(Tensor(np.zeros((2, 14, 3))), slots, homes)
    with pytest.raises(DimensionError, match="24 tokens"):  # the reverse move reads 24
        E.gather_tokens(Tensor(np.zeros((2, 15, 3))), homes, slots)


# -------------------------------------------------------------------- masks

def test_shift_mask_zero_when_unshifted():
    mask = shift_mask(8, 8, 4, 0)
    assert mask.shape == (4, 16, 16)
    assert np.all(mask == 0)


def test_shift_mask_structure():
    m, s = 4, 2
    mask = shift_mask(8, 8, m, s)
    # top-left window sees one contiguous region: nothing masked
    assert np.all(mask[0] == 0)
    # the bottom-right window mixes four regions: masked pairs exist
    assert np.any(mask[-1] < 0)
    # masking is symmetric and blocks with a large negative value
    for wid in range(mask.shape[0]):
        np.testing.assert_array_equal(mask[wid], mask[wid].T)
        blocked = mask[wid] < 0
        if blocked.any():
            assert np.all(mask[wid][blocked] <= -1e8)


def test_relative_position_index_diagonal_constant():
    m = 4
    idx = relative_position_index(m)
    assert idx.shape == (m * m, m * m)
    # all self-pairs share one relative offset bucket
    assert len(set(idx[i, i] for i in range(m * m))) == 1
    assert idx.max() < (2 * m - 1) ** 2


def shared_builders_in_source() -> set[str]:
    """Names of the functions in src/tecnet decorated with `shared`."""
    names = set()
    for path in Path(E.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", getattr(d, "attr", None)) == "shared"
                    for d in node.decorator_list):
                names.add(node.name)
    return names


def test_shared_caches_are_read_only():
    """Every layer of a kind gets the same shared array, so none may write
    to it: `engine.shared` builds the relative-position index, the window
    cut, the shift mask, the bilinear upsampling matrix and DDConv's tap grid
    once per arguments and compute dtype, and freezes them.  The list names
    every `shared` builder in the package."""
    builders = {relative_position_index: (4,), window_tokens: (7, 5, 4, 2),
                shift_mask: (8, 8, 4, 2), E._upsample_matrix: (4, 2), tap_grid: (8, 8, 3, 1)}
    assert {f.__name__ for f in builders} == shared_builders_in_source()
    integer = (relative_position_index, window_tokens)      # indices, whatever the dtype
    with E.precision(np.float32):
        narrow = {f: f(*args) for f, args in builders.items()}
        assert all(f(*args) is narrow[f] for f, args in builders.items())
    wide = {f: f(*args) for f, args in builders.items()}   # this module runs in float64
    assert all(f(*args) is wide[f] for f, args in builders.items())

    def flat(out):
        return out if isinstance(out, tuple) else (out,)

    for f in builders:
        for a, b in zip(flat(narrow[f]), flat(wide[f])):
            for arr in (a, b):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1
            if f in integer:
                assert a.dtype.kind == b.dtype.kind == "i"
            else:
                assert (a.dtype, b.dtype) == (np.float32, np.float64)
            np.testing.assert_array_equal(a, b)


# -------------------------------------------------- four-branch attention

def _acam(c=16, m=4, heads=1, shifted=False, shared_kv=False):
    return ACAM(c, m, heads=heads, shifted=shifted, shared_kv=shared_kv,
                rng=np.random.default_rng(5))


def test_output_shape_and_identity_at_init():
    layer = _acam()
    x = Tensor(RNG.standard_normal((2, 8, 8, 16)))
    out = layer(x)
    assert out.shape == (2, 8, 8, 16)
    # zero-initialized output projections make the module vanish at init
    assert np.max(np.abs(out.data)) == 0.0


def test_padded_extents_roundtrip():
    """Extents that are not window multiples are zero-padded bottom/right
    and cropped back: the output equals running on the padded map."""
    x = Tensor(RNG.standard_normal((2, 6, 7, 16)))  # not window multiples
    wake = np.random.default_rng(12)
    for shifted in (False, True):
        same = windowed(x, 4, 2 if shifted else 0, lambda wins, mask: wins)
        assert np.array_equal(same.data, x.data), f"identity attend, shifted={shifted}"
        layers = {
            "acam": _acam(m=4, shifted=shifted),
            "acam_shared": _acam(m=4, shifted=shifted, shared_kv=True),
            "wmsa": WindowAttention(16, 4, heads=2, shifted=shifted,
                                    rng=np.random.default_rng(5)),
        }
        for name, layer in layers.items():
            for _, p in layer.named_parameters():  # zero-init maps hide the output
                if not p.data.any():
                    p.data[:] = 0.05 * wake.standard_normal(p.shape)
            y = layer(x)
            assert y.shape == (2, 6, 7, 16), name
            full = layer(Tensor(np.pad(x.data, ((0, 0), (0, 2), (0, 1), (0, 0)))))
            assert np.array_equal(y.data, full.data[:, :6, :7]), f"{name} shifted={shifted}"


def test_four_branches_collected():
    layer = _acam(heads=2)
    x = Tensor(RNG.standard_normal((1, 8, 8, 16)))
    with capture() as (_, probs):
        layer(x)
    collect = dict(zip(BRANCHES, probs))
    assert len(probs) == len(BRANCHES)
    nw = 4
    assert collect["spatial"].shape[0] == nw
    assert collect["spatial"].shape[1] == 2  # head count
    # every attention row is a probability distribution
    for key in ("spatial", "channel", "cross_h", "cross_w"):
        sums = collect[key].sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_masked_pairs_get_no_attention():
    c, m = 16, 4
    layer = _acam(c=c, m=m, shifted=True)
    x = Tensor(RNG.standard_normal((2, 8, 8, c)))
    with capture() as (_, probs):
        layer(x)
    attn = probs[0]  # spatial, [B*nw, heads, M*M, M*M]
    mask = shift_mask(8, 8, m, m // 2)
    blocked = mask < 0
    nw = mask.shape[0]
    assert attn.shape[0] == 2 * nw
    mass = sum(attn[w][:, blocked[w % nw]].sum() for w in range(attn.shape[0]))
    assert mass < 1e-8


# (heads, d, dv) by id.  The rank1 shapes have one feature per head in q, k
# and v, as ACAM's cross branches do: without bias and mask they take the
# attention kernel's blocked rank-one path, with scale 1 at d = 1 and
# 1/sqrt(2) at d = 2; with either they take the general path.
SHAPES = {"1": (1, 4, 6), "2": (2, 4, 6), "rank1-1": (1, 1, 1), "rank1-2": (2, 2, 2)}


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("bias_shape", ["heads,T,T", "T,T", None])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shared_qk", [False, True])
def test_fused_attention_matches_composed_chain(shape, bias_shape, masked, shared_qk):
    """engine.attention equals the composed op chain it replaced: the forward
    exactly, the input and bias gradients to 1e-12 relative."""
    _compare_fused_with_chain(*SHAPES[shape], bias_shape, masked, shared_qk, images=1)


@pytest.mark.parametrize("heads", [1, 2])
def test_fused_attention_broadcasts_the_mask_over_images(heads):
    """Three images' windows on one axis take the one-image [4, T, T] shift
    mask, and match the chain given the mask tiled three times."""
    _compare_fused_with_chain(heads, 4, 6, "heads,T,T", True, False, images=3)


def _compare_fused_with_chain(heads, d, dv, bias_shape, masked, shared_qk, images):
    t = 16
    nw = 4 * images
    rng = np.random.default_rng(17)
    q = Tensor(rng.standard_normal((nw, t, d)), requires_grad=True)
    k = q if shared_qk else Tensor(rng.standard_normal((nw, t, d)), requires_grad=True)
    v = Tensor(rng.standard_normal((nw, t, dv)), requires_grad=True)
    leaves = [q, v] if shared_qk else [q, k, v]
    bias = None
    if bias_shape is not None:
        shape = (heads, t, t) if bias_shape == "heads,T,T" else (t, t)
        bias = Tensor(0.5 * rng.standard_normal(shape), requires_grad=True)
        leaves.append(bias)
    mask = shift_mask(8, 8, 4, 2) if masked else None        # [4, 16, 16]
    weight = Tensor(rng.standard_normal((nw, t, dv)))

    runs = []
    for fn, fn_mask in ((E.attention, mask),
                        (attention_reference, None if mask is None else np.tile(mask, (images, 1, 1)))):
        for p in leaves:
            p.zero_grad()
        with Tape():
            out = fn(q, k, v, heads=heads, bias=bias, mask=fn_mask)
            loss = (out * weight).sum()
        backward(loss)
        runs.append((out.data, [p.grad.copy() for p in leaves]))
    (fast, fast_grads), (slow, slow_grads) = runs
    assert np.array_equal(fast, slow)
    for got, want in zip(fast_grads, slow_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# [n, T] of nano's cross-branch attention calls at B=8, one feature per head
# in q, k and v: the shapes the rank-one backward serves in training.
NANO_CROSS_SHAPES = [(128, 64), (32, 128), (8, 256), (8, 512)]

# [n, T] that cut the rank-one kernel's blocks of 2**18 probability entries
# unevenly: 5 windows of 256 tokens at 4 per block, and windows of 640
# tokens, each larger than a block.
BLOCK_EDGE_SHAPES = [(5, 256), (2, 640)]


def _rank_one_run(fn, n, t, rng):
    """Output and (q, k, v) gradients of sum(w * fn(q, k, v)) in one head."""
    q, k, v = (Tensor(rng.standard_normal((n, t, 1)), requires_grad=True) for _ in range(3))
    weight = Tensor(rng.standard_normal((n, t, 1)))
    with Tape():
        out = fn(q, k, v)
        loss = (out * weight).sum()
    backward(loss)
    return out.data, [p.grad for p in (q, k, v)]


@pytest.mark.parametrize("n,t", NANO_CROSS_SHAPES + BLOCK_EDGE_SHAPES)
def test_rank_one_backward_matches_the_chain_in_float32(n, t):
    """In float32 compute, on nano's cross-branch shapes and the blocks'
    edge cases, the rank-one backward's gradients match the composed
    chain's to 1e-5 of each gradient's largest entry, and the forwards are
    equal."""
    with E.precision(np.float32):
        fast, fast_grads = _rank_one_run(E.attention, n, t, np.random.default_rng(t))
        slow, slow_grads = _rank_one_run(attention_reference, n, t, np.random.default_rng(t))
    assert fast.dtype == np.float32
    assert np.array_equal(fast, slow)
    for got, want in zip(fast_grads, slow_grads):
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


@pytest.mark.parametrize("n,t", BLOCK_EDGE_SHAPES)
def test_rank_one_blocks_match_the_chain(n, t):
    """A block count that does not divide the windows, or a window larger
    than a block, leaves the forward equal to the chain's and the gradients
    within 1e-12 of it."""
    fast, fast_grads = _rank_one_run(E.attention, n, t, np.random.default_rng(t))
    slow, slow_grads = _rank_one_run(attention_reference, n, t, np.random.default_rng(t))
    assert np.array_equal(fast, slow)
    for got, want in zip(fast_grads, slow_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_capture_records_the_rank_one_probabilities():
    """Inside `capture()` a rank-one call records [n, heads, T, T]
    probabilities equal to the softmax of the chain's logits."""
    n, t, heads = 5, 256, 2
    q, k, v = (Tensor(RNG.standard_normal((n, t, heads))) for _ in range(3))
    with capture() as (_, probs):
        E.attention(q, k, v, heads=heads)
    qh = q.reshape(n, t, heads, 1).permute(0, 2, 1, 3)
    kh = k.reshape(n, t, heads, 1).permute(0, 2, 3, 1)
    want = E.softmax((qh @ kh) * (1.0 / np.sqrt(heads)), axis=-1).data
    assert len(probs) == 1 and probs[0].shape == (n, heads, t, t)
    assert np.array_equal(probs[0], want)


def test_rank_one_attention_forms_its_probabilities_a_block_at_a_time():
    """One float32 rank-one forward plus backward at [64, 256, 1] peaks
    below a quarter of its 16 MiB of [64, 1, 256, 256] probabilities."""
    n, t = 64, 256
    with E.precision(np.float32):
        q, k, v = (Tensor(RNG.standard_normal((n, t, 1)), requires_grad=True) for _ in range(3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape():
                loss = E.attention(q, k, v).sum()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < n * t * t * np.dtype(np.float32).itemsize / 4


def test_rank_one_backward_holds_one_probability_sized_buffer():
    """One rank-one backward at [8, 512, 1] peaks below two [8, 1, 512, 512]
    buffers: it forms the exponentials once and never the T x T gradient
    (the softmax-Jacobian backward it replaced peaked near three)."""
    n, t = 8, 512
    with E.precision(np.float32):
        q, k, v = (Tensor(RNG.standard_normal((n, t, 1)), requires_grad=True) for _ in range(3))
        with Tape():
            loss = E.attention(q, k, v).sum()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 2 * n * t * t * np.dtype(np.float32).itemsize


@pytest.mark.parametrize("kind", ["acam", "acam_shared", "wmsa"])
def test_batch_equals_images_one_at_a_time(kind):
    """Windows of a batch are attended image by image: shifted windows on a
    padded 6x7 map give each image what it gets alone, to 1e-12."""
    wake = np.random.default_rng(14)
    if kind == "wmsa":
        layer = WindowAttention(16, 4, heads=2, shifted=True, rng=np.random.default_rng(5))
    else:
        layer = _acam(m=4, shifted=True, shared_kv=kind == "acam_shared")
    for _, p in layer.named_parameters():
        if not p.data.any():
            p.data[:] = 0.05 * wake.standard_normal(p.shape)
    x = Tensor(RNG.standard_normal((3, 6, 7, 16)))
    batch = layer(x).data
    for i in range(3):
        alone = layer(Tensor(x.data[i:i + 1])).data
        np.testing.assert_allclose(batch[i:i + 1], alone, rtol=0, atol=1e-12)


def test_fusion_weights_start_at_quarter_each():
    layer = _acam()
    np.testing.assert_array_equal(layer.lambdas.data, [0.25, 0.25, 0.25, 0.25])
    assert layer.lambdas.requires_grad


def test_gradients_unshifted():
    layer = _acam(c=8, m=2, heads=1)
    x = Tensor(RNG.standard_normal((2, 4, 4, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 4, 4, 8)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=4, rng=np.random.default_rng(2))
    assert max_rel_err(rows) < 1e-4


def test_gradients_shifted_and_shared():
    for shared in (False, True):
        layer = ACAM(8, 2, heads=1, shifted=True, shared_kv=shared,
                     rng=np.random.default_rng(6))
        x = Tensor(RNG.standard_normal((1, 4, 4, 8)), requires_grad=True)
        w = Tensor(RNG.standard_normal((1, 4, 4, 8)))
        params = list(layer.named_parameters()) + [("x", x)]
        rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                               max_coords=3, rng=np.random.default_rng(3))
        assert max_rel_err(rows) < 1e-4, f"shared_kv={shared}"

    # plain shifted windows on a 3x5 map: padded to 4x6 before the shift
    rng = np.random.default_rng(13)
    layer = WindowAttention(8, 2, heads=2, shifted=True, rng=np.random.default_rng(6))
    layer.out.weight.data[:] = 0.1 * rng.standard_normal(layer.out.weight.shape)
    x = Tensor(rng.standard_normal((2, 3, 5, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 5, 8)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=3, rng=np.random.default_rng(3))
    assert max_rel_err(rows) < 1e-4, "window attention, shifted, padded"


def test_rejects_incompatible_heads():
    with pytest.raises(ConfigurationError):
        ACAM(16, 4, heads=3, shifted=False, rng=np.random.default_rng(0))


@pytest.mark.parametrize("heads", [0, -2])
def test_attention_rejects_a_head_count_below_one(heads):
    q = Tensor(RNG.standard_normal((2, 4, 4)))
    with pytest.raises(ConfigurationError, match=f"into {heads} heads"):
        E.attention(q, q, q, heads=heads)


def test_window_attention_rejects_zero_heads():
    with pytest.raises(ConfigurationError, match="into 0 heads"):
        WindowAttention(16, 4, 0, False, rng=np.random.default_rng(0))


def test_rejects_a_bias_of_the_wrong_shape():
    """A bias that is neither [heads, T, T] nor [T, T] fails naming both shapes."""
    q = Tensor(RNG.standard_normal((2, 4, 4)))
    with pytest.raises(ConfigurationError, match=r"\(3, 4, 4\).*\(2, 4, 4\)"):
        E.attention(q, q, q, heads=2, bias=Tensor(np.zeros((3, 4, 4))))


def test_plain_window_attention_runs_and_masks():
    layer = WindowAttention(8, 4, heads=2, shifted=True,
                            rng=np.random.default_rng(7))
    x = Tensor(RNG.standard_normal((1, 8, 8, 8)))
    with capture() as (_, probs):
        out = layer(x)
    assert out.shape == (1, 8, 8, 8)
    attn = probs[0]
    mask = shift_mask(8, 8, 4, 2)
    blocked = mask < 0
    mass = sum(attn[w][:, blocked[w]].sum() for w in range(attn.shape[0]))
    assert mass < 1e-8


# --------------------------------------------------------------- cost model

def test_cost_formula_triple():
    assert cost_msa(8, 8, 16) == 196608
    assert cost_swmsa(8, 8, 16, 4) == 98304
    assert cost_acam(8, 8, 16, 4) == 20480


def test_cost_formulas_match_hand_arithmetic():
    for h in (8, 16, 56):
        for w in (8, 16, 56):
            for c in (16, 96):
                for m in (4, 7):
                    hw = h * w
                    assert cost_msa(h, w, c) == 4 * hw * c * c + 2 * hw * hw * c
                    assert cost_swmsa(h, w, c, m) == 4 * hw * c * c + 2 * m * m * hw * c
                    assert cost_acam(h, w, c, m) == (hw * c * c) // 4 + m * m * hw * c


def test_cost_orderings():
    for h in (8, 16, 56):
        for w in (8, 16, 56):
            for c in (16, 96):
                for m in (4, 7):
                    assert cost_acam(h, w, c, m) < cost_swmsa(h, w, c, m)
                    if h * w > m * m:
                        assert cost_swmsa(h, w, c, m) < cost_msa(h, w, c)


def _stage0_rows(**mode):
    """attention_rows of a 16-wide, 4x4-window, one-head layer on an 8x8 grid."""
    return attention_rows(nano_config(input_size=32, **mode), 0)


def test_actual_macs_report_shape_and_spatial_exactness():
    rows = _stage0_rows()
    branches = {r["branch"] for r in rows}
    assert {"projection", "attention_spatial", "attention_channel",
            "attention_cross_h", "attention_cross_w", "output_projection",
            "total"} == branches
    by = {r["branch"]: r for r in rows}
    # the spatial branch realizes its advertised budget exactly
    assert by["attention_spatial"]["actual_macs"] == by["attention_spatial"]["formula_macs"]
    # the total row sums the branches' columns
    for col in ("params", "actual_macs", "prob_entries"):
        assert by["total"][col] == sum(r[col] for r in rows if r["branch"] != "total"), col


def test_shared_kv_projection_budget():
    """Shared projections hit the quarter-cost budget; separate ones exceed it."""
    shared = {r["branch"]: r for r in _stage0_rows(shared_kv=True)}
    assert shared["projection"]["actual_macs"] == shared["projection"]["formula_macs"]
    assert shared["projection"]["formula_macs"] == (8 * 8 * 16 * 16) // 4

    separate = {r["branch"]: r for r in _stage0_rows()}
    assert separate["projection"]["actual_macs"] > separate["projection"]["formula_macs"]


def test_shared_and_separate_modes_differ_in_value():
    x = Tensor(RNG.standard_normal((1, 8, 8, 16)))
    a = ACAM(16, 4, heads=1, shifted=False, shared_kv=False,
             rng=np.random.default_rng(11))
    b = ACAM(16, 4, heads=1, shifted=False, shared_kv=True,
             rng=np.random.default_rng(11))
    # different parameterizations, independently sane shapes
    assert a(x).shape == b(x).shape == (1, 8, 8, 16)
    na = sum(p.size for _, p in a.named_parameters())
    nb = sum(p.size for _, p in b.named_parameters())
    assert nb < na  # sharing K/V embeddings saves parameters


ATTENTION_MODES = pytest.mark.parametrize(
    "mode", [{}, {"shared_kv": True}, {"use_acam": False}],
    ids=["separate", "shared_kv", "window_attention"])


@ATTENTION_MODES
def test_prob_entries_equal_the_collected_probabilities(mode):
    """Each branch's analytic prob_entries equals the size of the probability
    array its attention layer produces, divided by the batch, at every nano
    stage (the 2x2 bottleneck grid padded to one window included)."""
    cfg = nano_config(**mode)
    model = TecNet(cfg, seed=0)
    batch = 2
    for i in range(N_STAGES):
        g, c = cfg.stage_grid(i), cfg.stage_width(i)
        rows = {r["branch"]: r["prob_entries"] for r in attention_rows(cfg, i)}
        for block in model.trans_stages[i].blocks:
            with capture() as (_, probs):
                block.attn(Tensor(RNG.standard_normal((batch, g, g, c))))
            sizes = {f"attention_{key}": a.size // batch for key, a in zip(BRANCHES, probs)}
            assert sizes == {b: n for b, n in rows.items() if b.startswith("attention_")}, (i, mode)
            assert sum(sizes.values()) == rows["total"]


def _cost_row(name: str) -> str:
    """The attention_rows branch that counts a parameter of an attention layer."""
    head = name.split(".")[0]
    if head in ("bias", "bias_spatial"):
        return "attention_spatial"
    if head == "bias_channel":
        return "attention_channel"
    if head.startswith("out") or head == "lambdas":
        return "output_projection"
    return "projection"          # the q, k, v maps and the shared K/V embeddings


@ATTENTION_MODES
def test_params_rows_equal_the_enumerated_parameters(mode):
    """Each branch's params row holds exactly the parameters of the attention
    layer the config builds, at every nano stage, and the total row all of them."""
    cfg = nano_config(**mode)
    model = TecNet(cfg, seed=0)
    for i in range(N_STAGES):
        rows = {r["branch"]: r["params"] for r in attention_rows(cfg, i)}
        total = rows.pop("total")
        for block in model.trans_stages[i].blocks:
            enumerated = dict.fromkeys(rows, 0)
            for name, p in block.attn.named_parameters():
                enumerated[_cost_row(name)] += p.size
            assert enumerated == rows, (i, mode)
            assert sum(enumerated.values()) == total
