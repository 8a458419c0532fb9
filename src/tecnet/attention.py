"""Window attention with four complementary branches.

Feature maps are channels-last [B, h, w, C] and stay so.  One move of
their C-vector tokens pads them, cyclically shifts them (alternating
layers, Swin style) and cuts them into [B*nw, M, M, C] windows, all B
images' windows on one axis, so every product below runs once per batch.
That cut (`window_tokens`), the shift mask and the relative-position index
are built once per shape and shared by every layer.  Inside each window
four branches attend over different axis pairings, the spatial one on the
window's own token layout, the others on its [C, M, M] view:

* spatial:  M*M position tokens with C-dim features, relative-position bias
            and the shift mask;
* channel:  C channel tokens with M*M-dim features and a learnable
            channel-pair bias;
* cross C-H: (C*M) tokens over the width axis;
* cross C-W: (C*M) tokens over the height axis.

Every branch projects its feature axis down to an eighth (`branch_dims`)
before the attention product, and the four outputs are fused by learnable
scalars initialised to 1/4 each.  The projection shrinks the products'
feature dimension, not their token count: the channel branch attends over C
tokens and the cross branches over C*M, so their products grow with C^2.
In the default separate-projection mode the layer therefore costs more than
plain window attention at some widths (nano stages 1 and 3);
`model.attention_rows` counts what each mode really multiplies, and
`tecnet analyze` prints it beside the formulas.

In shared-projection mode the K and V embeddings are computed once from the
spatial token layout and every branch re-reads them in its own arrangement
(queries reuse the K embedding), cutting projection cost to a quarter of a
plain window attention.
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ConfigurationError
from .nn import Linear, Module, parameter

MASKED = -1e9


# ---------------------------------------------------------------- windows

def padded(g: int, m: int) -> int:
    """Extent g rounded up to whole m-wide windows: windows run on the padded grid."""
    return -(-g // m) * m


@E.shared
def window_tokens(h: int, w: int, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, homes): the cut of an h x w map into m x m windows as token moves.

    The map is padded bottom/right to window multiples, rolled by -s on both
    axes and cut into windows, row-major over the windows and within each.
    slots[i] is the row-major map position that window token i reads, h*w
    for a padding token; homes[j] is the window token map position j moves
    to.  `engine.gather_tokens` makes either move.
    """
    hp, wp = padded(h, m), padded(w, m)
    grid = np.pad(np.arange(h * w).reshape(h, w), ((0, hp - h), (0, wp - w)),
                  constant_values=h * w)
    grid = np.roll(grid, (-s, -s), axis=(0, 1))
    slots = grid.reshape(hp // m, m, wp // m, m).transpose(0, 2, 1, 3).reshape(-1)
    return slots, np.argsort(slots)[:h * w]     # the padding slots sort last


@E.shared
def relative_position_index(m: int) -> np.ndarray:
    """[m*m, m*m] lookup into a (2m-1)^2 relative offset table."""
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    coords = coords.reshape(2, -1)                       # [2, m^2]
    rel = coords[:, :, None] - coords[:, None, :]        # [2, m^2, m^2]
    rel = rel + (m - 1)
    return rel[0] * (2 * m - 1) + rel[1]


@E.shared
def shift_mask(h: int, w: int, m: int, s: int) -> np.ndarray:
    """[nw, m^2, m^2] additive mask for the cyclically shifted windows of an
    h x w map, padded as `window_tokens` pads it.

    Zero where both positions came from the same pre-shift region, a large
    negative number where the wrap-around glued unrelated content together.
    """
    h, w = padded(h, m), padded(w, m)
    # Region labels live in the already-shifted frame: the wrap seam sits
    # at h-s / w-s, and only the last band of windows straddles it (none
    # when s is 0, so that mask is all zeros).
    img = np.zeros((h, w))
    region = 0
    for ys in (slice(0, h - m), slice(h - m, h - s), slice(h - s, h)):
        for xs in (slice(0, w - m), slice(w - m, w - s), slice(w - s, w)):
            img[ys, xs] = region
            region += 1
    gh, gw = h // m, w // m
    wins = img.reshape(gh, m, gw, m).transpose(0, 2, 1, 3).reshape(gh * gw, m * m)
    diff = wins[:, None, :] != wins[:, :, None]
    return E.constant(np.where(diff, MASKED, 0.0))


def spatial_bias(table: Tensor, m: int, heads: int) -> Tensor:
    """[heads, m^2, m^2] relative-position bias gathered from a [(2m-1)^2, heads] table."""
    b = E.index_select(table, relative_position_index(m).reshape(-1))   # [m^4, heads]
    return b.reshape(m * m, m * m, heads).permute(2, 0, 1)


def windowed(x: Tensor, m: int, shift: int, attend) -> Tensor:
    """Run `attend(windows, mask)` over the m x m windows of a [B, h, w, C] map.

    The cut of `window_tokens` gathers the map into [B*nw, m, m, C] windows,
    padded and rolled by -shift.  `mask` is None when unshifted, else the
    shared [nw, m^2, m^2] shift mask of one image, which `engine.attention`
    broadcasts over the B images.  `attend` returns the windows' tokens in
    any [..., C] layout, which the reverse move puts back on the h x w map.
    """
    b, h, w, c = x.shape
    slots, homes = window_tokens(h, w, m, shift)
    mask = shift_mask(h, w, m, shift) if shift else None
    y = attend(E.gather_tokens(x, slots, homes).reshape(-1, m, m, c), mask)
    return E.gather_tokens(y, homes, slots).reshape(b, h, w, c)


def _effective_heads(dim: int, heads: int) -> int:
    """Per-branch head count: split only when the projected dim supports it."""
    if heads > 1 and dim % heads == 0 and dim >= 2 * heads:
        return heads
    return 1


def branch_dims(c: int, m: int, heads: int, shared_kv: bool) -> tuple[int, int, int, int, int]:
    """(c8, m8, p8, heads_channel, heads_cross) of an ACAM of width c and window m.

    c8, m8 and p8 are the projected widths of the C, M*M and M feature axes,
    an eighth each and at least 1.  The channel and cross branches split into
    `heads` only where the feature dim they attend with supports it: the
    projected m8 and p8 in separate mode, the embedding's M*M and M in shared
    mode.
    """
    c8, m8, p8 = (max(1, d // 8) for d in (c, m * m, m))
    dims = (m * m, m) if shared_kv else (m8, p8)
    return (c8, m8, p8) + tuple(_effective_heads(d, heads) for d in dims)


class ACAM(Module):
    """Four-branch adaptive complementary attention over a batch of feature maps.

    Input and output are [B, h, w, C]; extents are padded to window
    multiples internally and cropped back.  `shifted` selects the
    cyclically shifted window arrangement with its wrap mask.  A forward
    attends once per branch, in the order spatial, channel, cross_h,
    cross_w, which is the order `nn.capture()` lists the weights in.
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool,
                 shared_kv: bool = False, *, rng):
        c, m = channels, window
        if heads < 1:
            raise ConfigurationError(f"need at least one head, got {heads}")
        if c % (8 * heads):
            raise ConfigurationError(
                f"channels must be divisible by 8*heads, got C={c}, heads={heads}")
        self.channels = c
        self.window = m
        self.heads = heads
        self.shifted = shifted
        self.shift = m // 2 if shifted else 0
        self.shared_kv = shared_kv
        self.c8, self.m8, self.p8, self.heads_channel, self.heads_cross = branch_dims(
            c, m, heads, shared_kv)

        self.bias_spatial = parameter(((2 * m - 1) ** 2, heads), rng=rng, scale=0.02)
        self.lambdas = Tensor(np.full(4, 0.25), requires_grad=True)

        if shared_kv:
            self.embed_k = Linear(c, self.c8, rng=rng)
            self.embed_v = Linear(c, self.c8, rng=rng)
            self.out_spatial = Linear(self.c8, c, rng=rng, zero=True)
            self.out_channel = Linear(self.c8, c, rng=rng, zero=True)
            self.out_cross_h = Linear(self.c8, c, rng=rng, zero=True)
            self.out_cross_w = Linear(self.c8, c, rng=rng, zero=True)
            self.bias_channel = parameter((self.c8, self.c8), rng=rng, scale=0.02)
        else:
            self.q_spatial = Linear(c, self.c8, rng=rng)
            self.k_spatial = Linear(c, self.c8, rng=rng)
            self.v_spatial = Linear(c, self.c8, rng=rng)
            self.out_spatial = Linear(self.c8, c, rng=rng, zero=True)
            self.q_channel = Linear(m * m, self.m8, rng=rng)
            self.k_channel = Linear(m * m, self.m8, rng=rng)
            self.v_channel = Linear(m * m, self.m8, rng=rng)
            self.out_channel = Linear(self.m8, m * m, rng=rng, zero=True)
            self.bias_channel = parameter((c, c), rng=rng, scale=0.02)
            self.q_cross_h = Linear(m, self.p8, rng=rng)
            self.k_cross_h = Linear(m, self.p8, rng=rng)
            self.v_cross_h = Linear(m, self.p8, rng=rng)
            self.out_cross_h = Linear(self.p8, m, rng=rng, zero=True)
            self.q_cross_w = Linear(m, self.p8, rng=rng)
            self.k_cross_w = Linear(m, self.p8, rng=rng)
            self.v_cross_w = Linear(m, self.p8, rng=rng)
            self.out_cross_w = Linear(self.p8, m, rng=rng, zero=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ConfigurationError(f"expected {self.channels} channels, got {x.shape[-1]}")
        branches = self._branches_shared if self.shared_kv else self._branches_separate
        return windowed(x, self.window, self.shift, branches)

    def _fuse(self, o_spatial, o_channel, o_cross_h, o_cross_w):
        lam = self.lambdas
        return (o_spatial * lam[0] + o_channel * lam[1]
                + o_cross_h * lam[2] + o_cross_w * lam[3])

    def _branches_separate(self, wins: Tensor, mask):
        c, m = self.channels, self.window
        nw = wins.shape[0]
        sp_tokens = wins.reshape(nw, m * m, c)                    # spatial tokens
        grid = wins.permute(0, 3, 1, 2)                           # [nw, C, m, m]

        # spatial branch: relative-position bias plus shift mask
        o1 = E.attention(
            self.q_spatial(sp_tokens), self.k_spatial(sp_tokens), self.v_spatial(sp_tokens),
            heads=self.heads, bias=spatial_bias(self.bias_spatial, m, self.heads), mask=mask)
        o1 = self.out_spatial(o1).reshape(nw, m, m, c)

        # channel branch: learnable channel-pair bias, no mask
        grid_tokens = grid.reshape(nw, c, m * m)
        o2 = E.attention(
            self.q_channel(grid_tokens), self.k_channel(grid_tokens), self.v_channel(grid_tokens),
            heads=self.heads_channel, bias=self.bias_channel)
        o2 = self.out_channel(o2).permute(0, 2, 1).reshape(nw, m, m, c)

        # cross C-H: (channel, row) tokens attending along width
        ch_tokens = grid.reshape(nw, c * m, m)
        o3 = E.attention(
            self.q_cross_h(ch_tokens), self.k_cross_h(ch_tokens), self.v_cross_h(ch_tokens),
            heads=self.heads_cross)
        o3 = self.out_cross_h(o3).reshape(nw, c, m, m).permute(0, 2, 3, 1)

        # cross C-W: (channel, column) tokens attending along height
        cw_tokens = grid.permute(0, 1, 3, 2).reshape(nw, c * m, m)
        o4 = E.attention(
            self.q_cross_w(cw_tokens), self.k_cross_w(cw_tokens), self.v_cross_w(cw_tokens),
            heads=self.heads_cross)
        o4 = self.out_cross_w(o4).reshape(nw, c, m, m).permute(0, 3, 2, 1)

        return self._fuse(o1, o2, o3, o4)

    def _branches_shared(self, wins: Tensor, mask):
        c, m, c8 = self.channels, self.window, self.c8
        nw = wins.shape[0]
        sp_tokens = wins.reshape(nw, m * m, c)
        ke = self.embed_k(sp_tokens)                              # [nw, m^2, c8]
        ve = self.embed_v(sp_tokens)
        kg = ke.reshape(nw, m, m, c8).permute(0, 3, 1, 2)         # grid layout [nw, c8, m, m]
        vg = ve.reshape(nw, m, m, c8).permute(0, 3, 1, 2)

        # spatial: queries reuse the K embedding
        o1 = E.attention(ke, ke, ve, heads=self.heads,
                         bias=spatial_bias(self.bias_spatial, m, self.heads), mask=mask)
        o1 = self.out_spatial(o1)

        kc = kg.reshape(nw, c8, m * m)
        vc = vg.reshape(nw, c8, m * m)
        o2 = E.attention(kc, kc, vc, heads=self.heads_channel, bias=self.bias_channel)
        o2 = self.out_channel(o2.permute(0, 2, 1))

        kh = kg.reshape(nw, c8 * m, m)
        vh = vg.reshape(nw, c8 * m, m)
        o3 = E.attention(kh, kh, vh, heads=self.heads_cross)
        o3 = self.out_cross_h(o3.reshape(nw, c8, m * m).permute(0, 2, 1))

        kw = kg.permute(0, 1, 3, 2).reshape(nw, c8 * m, m)
        vw = vg.permute(0, 1, 3, 2).reshape(nw, c8 * m, m)
        o4 = E.attention(kw, kw, vw, heads=self.heads_cross)
        o4 = self.out_cross_w(o4.reshape(nw, c8, m, m).permute(0, 3, 2, 1).reshape(nw, m * m, c8))

        return self._fuse(o1, o2, o3, o4)


class WindowAttention(Module):
    """Plain single-branch shifted-window attention (ablation stand-in).

    Same window partition, shift, mask and relative-position bias as ACAM,
    but one spatial branch with full C -> C projections, so `nn.capture()`
    lists one attention weight array per forward.
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool, rng):
        c, m = channels, window
        if heads < 1 or c % heads:
            raise ConfigurationError(f"channels {c} do not split into {heads} heads")
        self.channels = c
        self.window = m
        self.heads = heads
        self.shifted = shifted
        self.shift = m // 2 if shifted else 0
        self.q = Linear(c, c, rng=rng)
        self.k = Linear(c, c, rng=rng)
        self.v = Linear(c, c, rng=rng)
        self.out = Linear(c, c, rng=rng, zero=True)
        self.bias = parameter(((2 * m - 1) ** 2, heads), rng=rng, scale=0.02)

    def forward(self, x: Tensor) -> Tensor:
        c, m = self.channels, self.window

        def attend(wins: Tensor, mask) -> Tensor:
            tokens = wins.reshape(wins.shape[0], m * m, c)
            o = E.attention(self.q(tokens), self.k(tokens), self.v(tokens), heads=self.heads,
                            bias=spatial_bias(self.bias, m, self.heads), mask=mask)
            return self.out(o)

        return windowed(x, m, self.shift, attend)


# ---------------------------------------------------------------- cost model

def cost_msa(h: int, w: int, c: int) -> int:
    """Global multi-head self-attention MACs on an h x w token grid."""
    hw = h * w
    return 4 * hw * c * c + 2 * hw * hw * c


def cost_swmsa(h: int, w: int, c: int, m: int) -> int:
    """Shifted-window attention MACs: full projections, windowed products."""
    hw = h * w
    return 4 * hw * c * c + 2 * m * m * hw * c


def cost_acam(h: int, w: int, c: int, m: int) -> int:
    """Four-branch attention MACs: quarter projections, windowed products."""
    hw = h * w
    return (hw * c * c) // 4 + m * m * hw * c
