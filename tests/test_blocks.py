"""Transformer blocks, the ghost-feature MLP, and the channels-last layout."""

import numpy as np
import pytest

from tecnet import Tensor
from tecnet.blocks import LPM, Mlp, TransformerBlock
from tecnet.gradcheck import check_gradients, max_rel_err
from tecnet.model import PatchEmbed, PatchExpand, PatchMerge, TransStage

# finite differences and exact oracles: every tensor here is float64
pytestmark = pytest.mark.usefixtures("float64")
RNG = np.random.default_rng(123)


def _affine(layer, v: np.ndarray) -> np.ndarray:
    """The layer's linear applied to one feature vector, in numpy."""
    return v @ layer.weight.data + layer.bias.data


# ------------------------------------------------------------------- layout

def test_patch_embed_puts_patch_ij_at_ij():
    embed = PatchEmbed(2, 4, 8, rng=np.random.default_rng(0))
    embed.proj.bias.data[:] = RNG.standard_normal(8)
    image = RNG.standard_normal((2, 12, 8))
    out = embed(Tensor(image)).data
    assert out.shape == (3, 2, 8)
    for i in range(3):
        for j in range(2):
            patch = image[:, 4 * i:4 * i + 4, 4 * j:4 * j + 4].reshape(-1)
            np.testing.assert_allclose(out[i, j], _affine(embed.proj, patch), rtol=1e-12)


def test_patch_merge_reduces_2x2_group_in_row_major_order():
    merge = PatchMerge(3, rng=np.random.default_rng(1))
    merge.reduce.bias.data[:] = RNG.standard_normal(6)
    x = RNG.standard_normal((4, 6, 3))
    out = merge(Tensor(x)).data
    assert out.shape == (2, 3, 6)
    for i in range(2):
        for j in range(3):
            group = np.concatenate([x[2 * i + a, 2 * j + b] for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))])
            np.testing.assert_allclose(out[i, j], _affine(merge.reduce, group), rtol=1e-12)


def test_patch_expand_puts_child_ab_at_2i_plus_a_2j_plus_b():
    expand = PatchExpand(4, rng=np.random.default_rng(2))
    expand.grow.bias.data[:] = RNG.standard_normal(8)
    x = RNG.standard_normal((2, 3, 4))
    out = expand(Tensor(x)).data
    assert out.shape == (4, 6, 2)
    for i in range(2):
        for j in range(3):
            children = _affine(expand.grow, x[i, j]).reshape(2, 2, 2)   # [a, b, C/2]
            for a in range(2):
                for b in range(2):
                    np.testing.assert_allclose(out[2 * i + a, 2 * j + b], children[a, b], rtol=1e-12)


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
    t = Tensor(RNG.standard_normal((4, 4, 8)))
    out = lpm(t)
    assert np.max(np.abs(out.data)) == 0.0  # zero-init out projection


def test_lpm_gradients():
    lpm = LPM(8, rng=np.random.default_rng(3))
    # break the zero init so gradients flow through every path
    lpm.out.weight.data[:] = 0.1 * RNG.standard_normal(lpm.out.weight.shape)
    t = Tensor(RNG.standard_normal((4, 4, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((4, 4, 8)))
    params = list(lpm.named_parameters()) + [("t", t)]
    rows = check_gradients(lambda: (lpm(t) * w).sum(), params,
                           max_coords=5, rng=np.random.default_rng(0))
    assert max_rel_err(rows) < 1e-4


# ------------------------------------------------------------------- blocks

def _block(c=8, m=2, shifted=False, **kw):
    return TransformerBlock(c, m, heads=1, shifted=shifted,
                            rng=np.random.default_rng(4), **kw)


def test_block_is_identity_at_init():
    """Zero-init output projections make a fresh block the identity map."""
    block = _block()
    t = Tensor(RNG.standard_normal((4, 4, 8)))
    out = block(t)
    assert np.max(np.abs(out.data - t.data)) == 0.0


def test_block_pair_applies_both_arrangements():
    pair = TransStage(8, 2, 2, 1, True, True, False, rng=np.random.default_rng(5))
    assert pair.blocks[0].attn.shifted is False
    assert pair.blocks[1].attn.shifted is True
    t = Tensor(RNG.standard_normal((4, 4, 8)))
    assert pair(t).shape == (4, 4, 8)


def test_block_gradients():
    block = _block()
    # perturb the zero-init projections so the whole graph carries signal
    for name, p in block.named_parameters():
        if p.data.size and np.all(p.data == 0) and "bias" not in name:
            p.data[:] = 0.05 * RNG.standard_normal(p.shape)
    t = Tensor(RNG.standard_normal((4, 4, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((4, 4, 8)))
    params = list(block.named_parameters()) + [("t", t)]
    rows = check_gradients(lambda: (block(t) * w).sum(), params,
                           max_coords=3, rng=np.random.default_rng(1))
    assert max_rel_err(rows) < 1e-4


def test_block_without_optional_parts():
    plain = _block(use_acam=False, use_lpm=False)
    t = Tensor(RNG.standard_normal((4, 4, 8)))
    assert plain(t).shape == (4, 4, 8)
    names = [n for n, _ in plain.named_parameters()]
    assert not any("lambda" in n for n in names)
