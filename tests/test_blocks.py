"""Transformer blocks, the ghost-feature MLP, and token/grid plumbing."""

import numpy as np
import pytest

from tecnet import Tensor
from tecnet.blocks import (LPM, Mlp, TransformerBlock, grid_to_tokens,
                           tokens_to_grid)
from tecnet.gradcheck import check_gradients, max_rel_err
from tecnet.model import TransStage

RNG = np.random.default_rng(123)


def test_tokens_grid_roundtrip():
    t = Tensor(RNG.standard_normal((16, 8)))  # 4x4 grid, width 8
    g = tokens_to_grid(t, 4, 4)
    assert g.shape == (8, 4, 4)
    back = grid_to_tokens(g)
    assert np.array_equal(back.data, t.data)


def test_grid_layout_row_major():
    t = Tensor(np.arange(8.0).reshape(4, 2))  # token i has values (2i, 2i+1)
    g = tokens_to_grid(t, 2, 2)
    np.testing.assert_array_equal(g.data[0], [[0, 2], [4, 6]])
    np.testing.assert_array_equal(g.data[1], [[1, 3], [5, 7]])


# ---------------------------------------------------------------------- LPM

def test_lpm_parameter_count_vs_plain_mlp():
    """Ghost features replace half the hidden expansion with a cheap
    depthwise pass: at d=96 the first stage costs 20160 parameters where a
    plain 96->384 expansion costs 36864."""
    d = 96
    lpm = LPM(d, rng=np.random.default_rng(0))
    first_stage = lpm.primary.weight.size + lpm.primary.bias.size \
        + lpm.ghost.weight.size + lpm.ghost.bias.size
    assert first_stage == 96 * 192 + 192 + 192 * 9 + 192
    plain_first = 96 * 384 + 384
    assert plain_first == 36864 + 384
    assert first_stage - 192 - 192 == 20160  # weight-only comparison
    # totals: 6d^2 + small terms stays below the plain 8d^2 whenever d > 9
    total = sum(p.size for _, p in lpm.named_parameters())
    plain_total = (d * 4 * d + 4 * d) + (4 * d * d + d)
    assert total < plain_total


@pytest.mark.parametrize("d", [16, 32, 64, 128])
def test_lpm_cheaper_than_plain_mlp_at_model_widths(d):
    lpm = LPM(d, rng=np.random.default_rng(1))
    mlp = Mlp(d, rng=np.random.default_rng(1))
    n_lpm = sum(p.size for _, p in lpm.named_parameters())
    n_mlp = sum(p.size for _, p in mlp.named_parameters())
    assert n_lpm < n_mlp


def test_lpm_identity_at_init():
    lpm = LPM(8, rng=np.random.default_rng(2))
    t = Tensor(RNG.standard_normal((16, 8)))
    out = lpm(t, (4, 4))
    assert np.max(np.abs(out.data)) == 0.0  # zero-init out projection


def test_lpm_gradients():
    lpm = LPM(8, rng=np.random.default_rng(3))
    # break the zero init so gradients flow through every path
    lpm.out.weight.data[:] = 0.1 * RNG.standard_normal(lpm.out.weight.shape)
    t = Tensor(RNG.standard_normal((16, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 8)))
    params = list(lpm.named_parameters()) + [("t", t)]
    rows = check_gradients(lambda: (lpm(t, (4, 4)) * w).sum(), params,
                           max_coords=5, rng=np.random.default_rng(0))
    assert max_rel_err(rows) < 1e-4


# ------------------------------------------------------------------- blocks

def _block(c=8, m=2, shifted=False, **kw):
    return TransformerBlock(c, m, heads=1, shifted=shifted,
                            rng=np.random.default_rng(4), **kw)


def test_block_is_identity_at_init():
    """Zero-init output projections make a fresh block the identity map."""
    block = _block()
    t = Tensor(RNG.standard_normal((16, 8)))
    out = block(t, (4, 4))
    assert np.max(np.abs(out.data - t.data)) == 0.0


def test_block_pair_applies_both_arrangements():
    pair = TransStage(8, 2, 2, 1, True, True, False, rng=np.random.default_rng(5))
    assert pair.blocks[0].attn.shifted is False
    assert pair.blocks[1].attn.shifted is True
    t = Tensor(RNG.standard_normal((16, 8)))
    assert pair(t, (4, 4)).shape == (16, 8)


def test_block_gradients():
    block = _block()
    # perturb the zero-init projections so the whole graph carries signal
    for name, p in block.named_parameters():
        if p.data.size and np.all(p.data == 0) and "bias" not in name:
            p.data[:] = 0.05 * RNG.standard_normal(p.shape)
    t = Tensor(RNG.standard_normal((16, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 8)))
    params = list(block.named_parameters()) + [("t", t)]
    rows = check_gradients(lambda: (block(t, (4, 4)) * w).sum(), params,
                           max_coords=3, rng=np.random.default_rng(1))
    assert max_rel_err(rows) < 1e-4


def test_block_without_optional_parts():
    plain = _block(use_acam=False, use_lpm=False)
    t = Tensor(RNG.standard_normal((16, 8)))
    assert plain(t, (4, 4)).shape == (16, 8)
    names = [n for n, _ in plain.named_parameters()]
    assert not any("lambda" in n for n in names)
