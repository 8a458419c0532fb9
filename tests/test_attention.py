"""Window machinery, masks, four-branch attention, and the cost model."""

import numpy as np
import pytest

from oracles import attention_reference
from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.attention import (ACAM, WindowAttention, cost_acam, cost_msa,
                              cost_swmsa, count_actual_macs, crop_to,
                              pad_to_window, relative_position_index,
                              shift_mask, window_partition, window_reverse,
                              windowed)
from tecnet.errors import ConfigurationError
from tecnet.gradcheck import check_gradients, max_rel_err

# finite differences and exact oracles: every tensor here is float64
pytestmark = pytest.mark.usefixtures("float64")
RNG = np.random.default_rng(99)


# ------------------------------------------------------------- partitioning

@pytest.mark.parametrize("hw", [8, 16, 28])
@pytest.mark.parametrize("m", [4, 7])
def test_partition_reverse_roundtrip(hw, m):
    """Partition and reverse invert each other exactly, padding included."""
    x = Tensor(RNG.standard_normal((3, hw, hw)))
    xp, (h0, w0) = pad_to_window(x, m)
    assert (h0, w0) == (hw, hw)
    hp, wp = xp.shape[1], xp.shape[2]
    assert hp % m == 0 and wp % m == 0
    windows = window_partition(xp, m)
    assert windows.shape == ((hp // m) * (wp // m), 3, m, m)
    back = crop_to(window_reverse(windows, m, hp, wp), hw, hw)
    assert np.array_equal(back.data, x.data)


@pytest.mark.parametrize("hw", [8, 16, 28])
@pytest.mark.parametrize("m", [4, 7])
def test_cyclic_shift_roundtrip(hw, m):
    s = m // 2
    x = Tensor(RNG.standard_normal((2, hw, hw)))
    back = E.roll2d(E.roll2d(x, -s, -s), s, s)
    assert np.array_equal(back.data, x.data)


def test_partition_layout_is_row_major_windows():
    # 1 channel, 4x4 grid, window 2: window 0 must be the top-left block
    x = Tensor(np.arange(16.0).reshape(1, 4, 4))
    w = window_partition(x, 2)
    np.testing.assert_array_equal(w.data[0, 0], [[0, 1], [4, 5]])
    np.testing.assert_array_equal(w.data[1, 0], [[2, 3], [6, 7]])
    np.testing.assert_array_equal(w.data[2, 0], [[8, 9], [12, 13]])


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


# -------------------------------------------------- four-branch attention

def _acam(c=16, m=4, heads=1, shifted=False, shared_kv=False):
    return ACAM(c, m, heads=heads, shifted=shifted, shared_kv=shared_kv,
                rng=np.random.default_rng(5))


def test_output_shape_and_identity_at_init():
    layer = _acam()
    x = Tensor(RNG.standard_normal((16, 8, 8)))
    out = layer(x)
    assert out.shape == (16, 8, 8)
    # zero-initialized output projections make the module vanish at init
    assert np.max(np.abs(out.data)) == 0.0


def test_padded_extents_roundtrip():
    """Extents that are not window multiples are zero-padded bottom/right
    and cropped back: the output equals running on the padded map."""
    x = Tensor(RNG.standard_normal((16, 6, 7)))  # not window multiples
    wake = np.random.default_rng(12)
    for shifted in (False, True):
        same = windowed(x, 4, 2 if shifted else 0, {}, lambda wins, mask: wins)
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
            assert y.shape == (16, 6, 7), name
            full = layer(E.pad2d(x, 0, 2, 0, 1))
            assert np.array_equal(y.data, full.data[:, :6, :7]), f"{name} shifted={shifted}"


def test_four_branches_collected():
    layer = _acam(heads=2)
    x = Tensor(RNG.standard_normal((16, 8, 8)))
    collect = {}
    layer(x, collect=collect)
    assert set(collect) >= {"spatial", "channel", "cross_h", "cross_w"}
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
    x = Tensor(RNG.standard_normal((c, 8, 8)))
    collect = {}
    layer(x, collect=collect)
    attn = collect["spatial"]  # [nw, heads, M*M, M*M]
    mask = shift_mask(8, 8, m, m // 2)
    blocked = mask < 0
    mass = sum(attn[w][:, blocked[w]].sum() for w in range(attn.shape[0]))
    assert mass < 1e-8


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("bias_shape", ["heads,T,T", "T,T", None])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shared_qk", [False, True])
def test_fused_attention_matches_composed_chain(heads, bias_shape, masked, shared_qk):
    """engine.attention equals the composed op chain it replaced: the forward
    exactly, the input and bias gradients to 1e-12 relative."""
    nw, t, d, dv = 4, 16, 4, 6
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
    for fn in (E.attention, attention_reference):
        for p in leaves:
            p.zero_grad()
        with Tape():
            out = fn(q, k, v, heads=heads, bias=bias, mask=mask)
            loss = (out * weight).sum()
        backward(loss)
        runs.append((out.data, [p.grad.copy() for p in leaves]))
    (fast, fast_grads), (slow, slow_grads) = runs
    assert np.array_equal(fast, slow)
    for got, want in zip(fast_grads, slow_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fusion_weights_start_at_quarter_each():
    layer = _acam()
    np.testing.assert_array_equal(layer.lambdas.data, [0.25, 0.25, 0.25, 0.25])
    assert layer.lambdas.requires_grad


def test_gradients_unshifted():
    layer = _acam(c=8, m=2, heads=1)
    x = Tensor(RNG.standard_normal((8, 4, 4)), requires_grad=True)
    w = Tensor(RNG.standard_normal((8, 4, 4)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=4, rng=np.random.default_rng(2))
    assert max_rel_err(rows) < 1e-4


def test_gradients_shifted_and_shared():
    for shared in (False, True):
        layer = ACAM(8, 2, heads=1, shifted=True, shared_kv=shared,
                     rng=np.random.default_rng(6))
        x = Tensor(RNG.standard_normal((8, 4, 4)), requires_grad=True)
        w = Tensor(RNG.standard_normal((8, 4, 4)))
        params = list(layer.named_parameters()) + [("x", x)]
        rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                               max_coords=3, rng=np.random.default_rng(3))
        assert max_rel_err(rows) < 1e-4, f"shared_kv={shared}"

    # plain shifted windows on a 3x5 map: padded to 4x6 before the shift
    rng = np.random.default_rng(13)
    layer = WindowAttention(8, 2, heads=2, shifted=True, rng=np.random.default_rng(6))
    layer.out.weight.data[:] = 0.1 * rng.standard_normal(layer.out.weight.shape)
    x = Tensor(rng.standard_normal((8, 3, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3, 5)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=3, rng=np.random.default_rng(3))
    assert max_rel_err(rows) < 1e-4, "window attention, shifted, padded"


def test_rejects_incompatible_heads():
    with pytest.raises(ConfigurationError):
        ACAM(16, 4, heads=3, shifted=False, rng=np.random.default_rng(0))


def test_plain_window_attention_runs_and_masks():
    layer = WindowAttention(8, 4, heads=2, shifted=True,
                            rng=np.random.default_rng(7))
    x = Tensor(RNG.standard_normal((8, 8, 8)))
    collect = {}
    out = layer(x, collect=collect)
    assert out.shape == (8, 8, 8)
    attn = collect["spatial"]
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


def test_actual_macs_report_shape_and_spatial_exactness():
    layer = _acam(c=16, m=4)
    rows = count_actual_macs(layer, 8, 8)
    branches = {r["branch"] for r in rows}
    assert {"projection", "attention_spatial", "attention_channel",
            "attention_cross_h", "attention_cross_w", "output_projection",
            "total"} == branches
    by = {r["branch"]: r for r in rows}
    # the spatial branch realizes its advertised budget exactly
    assert by["attention_spatial"]["actual_macs"] == by["attention_spatial"]["formula_macs"]
    # totals column is self-consistent
    partial = sum(r["actual_macs"] for r in rows if r["branch"] != "total")
    assert by["total"]["actual_macs"] == partial


def test_shared_kv_projection_budget():
    """Shared projections hit the quarter-cost budget; separate ones exceed it."""
    shared = {r["branch"]: r for r in count_actual_macs(_acam(shared_kv=True), 8, 8)}
    assert shared["projection"]["actual_macs"] == shared["projection"]["formula_macs"]
    assert shared["projection"]["formula_macs"] == (8 * 8 * 16 * 16) // 4

    separate = {r["branch"]: r for r in count_actual_macs(_acam(), 8, 8)}
    assert separate["projection"]["actual_macs"] > separate["projection"]["formula_macs"]


def test_shared_and_separate_modes_differ_in_value():
    x = Tensor(RNG.standard_normal((16, 8, 8)))
    a = ACAM(16, 4, heads=1, shifted=False, shared_kv=False,
             rng=np.random.default_rng(11))
    b = ACAM(16, 4, heads=1, shifted=False, shared_kv=True,
             rng=np.random.default_rng(11))
    # different parameterizations, independently sane shapes
    assert a(x).shape == b(x).shape == (16, 8, 8)
    na = sum(p.size for _, p in a.named_parameters())
    nb = sum(p.size for _, p in b.named_parameters())
    assert nb < na  # sharing K/V embeddings saves parameters
