"""Window attention with four complementary branches.

Feature maps are cut into M x M windows (cyclically shifted for alternating
layers, Swin style).  Inside each window, four attention branches run over
different axis pairings of the [C, M, M] block:

* spatial:  M*M position tokens with C-dim features, relative-position bias
            and the shift mask;
* channel:  C channel tokens with M*M-dim features and a learnable
            channel-pair bias;
* cross C-H: (C*M) tokens over the width axis;
* cross C-W: (C*M) tokens over the height axis.

Every branch projects its feature axis down to max(1, d // 8) before the
attention product, which is what makes the whole thing cheap, and the four
outputs are fused by learnable scalars initialised to 1/4 each.

In shared-projection mode the K and V embeddings are computed once from the
spatial token layout and every branch re-reads them in its own arrangement
(queries reuse the K embedding), cutting projection cost to a quarter of a
plain window attention.
"""

from __future__ import annotations

import csv

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ConfigurationError, UsageError
from .nn import Linear, Module, parameter

MASKED = -1e9


# ---------------------------------------------------------------- windows

def window_partition(x: Tensor, m: int) -> Tensor:
    """[C, h, w] -> [nw, C, m, m] row-major over window positions.

    Extents must already be multiples of m; pad first if they are not.
    """
    c, h, w = x.shape
    if h % m or w % m:
        raise UsageError(
            f"window_partition needs extents divisible by {m}, got {h}x{w}; pad_to_window first")
    gh, gw = h // m, w // m
    t = x.reshape(c, gh, m, gw, m)
    t = t.permute(1, 3, 0, 2, 4)             # [gh, gw, C, m, m]
    return t.reshape(gh * gw, c, m, m)


def window_reverse(windows: Tensor, m: int, h: int, w: int) -> Tensor:
    """Inverse of window_partition back to [C, h, w]."""
    nw, c, m1, m2 = windows.shape
    if m1 != m or m2 != m or nw != (h // m) * (w // m):
        raise UsageError(f"window_reverse got {windows.shape} for target {h}x{w}, m={m}")
    gh, gw = h // m, w // m
    t = windows.reshape(gh, gw, c, m, m)
    t = t.permute(2, 0, 3, 1, 4)              # [C, gh, m, gw, m]
    return t.reshape(c, h, w)


def pad_to_window(x: Tensor, m: int) -> tuple[Tensor, tuple[int, int]]:
    """Zero-pad bottom/right so both extents are multiples of m."""
    c, h, w = x.shape
    ph = (m - h % m) % m
    pw = (m - w % m) % m
    if ph or pw:
        x = E.pad2d(x, 0, ph, 0, pw)
    return x, (h, w)


def crop_to(x: Tensor, h: int, w: int) -> Tensor:
    if x.shape[-2] == h and x.shape[-1] == w:
        return x
    return x[..., :h, :w]


def relative_position_index(m: int) -> np.ndarray:
    """[m*m, m*m] lookup into a (2m-1)^2 relative offset table."""
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    coords = coords.reshape(2, -1)                       # [2, m^2]
    rel = coords[:, :, None] - coords[:, None, :]        # [2, m^2, m^2]
    rel = rel + (m - 1)
    return rel[0] * (2 * m - 1) + rel[1]


def shift_mask(h: int, w: int, m: int, s: int) -> np.ndarray:
    """[nw, m^2, m^2] additive mask for cyclically shifted windows.

    Zero where both positions came from the same pre-shift region, a large
    negative number where the wrap-around glued unrelated content together.
    """
    nw = (h // m) * (w // m)
    if s == 0:
        return np.zeros((nw, m * m, m * m), dtype=E.compute_dtype())
    # Region labels live in the already-shifted frame: the wrap seam sits at
    # h-s / w-s, and only the last band of windows straddles it.
    img = np.zeros((h, w))
    region = 0
    for ys in (slice(0, h - m), slice(h - m, h - s), slice(h - s, h)):
        for xs in (slice(0, w - m), slice(w - m, w - s), slice(w - s, w)):
            img[ys, xs] = region
            region += 1
    gh, gw = h // m, w // m
    wins = img.reshape(gh, m, gw, m).transpose(0, 2, 1, 3).reshape(nw, m * m)
    diff = wins[:, None, :] != wins[:, :, None]
    return E.constant(np.where(diff, MASKED, 0.0))


def spatial_bias(table: Tensor, rel_index: np.ndarray, m: int, heads: int) -> Tensor:
    """[heads, m^2, m^2] relative-position bias gathered from a [(2m-1)^2, heads] table."""
    b = E.index_select(table, rel_index)                 # [m^4, heads]
    return b.reshape(m * m, m * m, heads).permute(2, 0, 1)


def windowed(x: Tensor, m: int, shift: int, mask_cache: dict, attend) -> Tensor:
    """Run `attend(windows, mask)` over the m x m windows of a [C, h, w] map.

    Pads bottom/right to window multiples, rolls by -shift and partitions
    into [nw, C, m, m] windows.  `mask` is None when unshifted, else the
    shift mask of the padded extent, built once per extent and compute
    dtype into mask_cache.
    The [nw, C, m, m] result is reversed, rolled back and cropped to h x w.
    """
    x, (h0, w0) = pad_to_window(x, m)
    _, h, w = x.shape
    mask = None
    if shift:
        x = E.roll2d(x, -shift, -shift)
        key = (h, w, E.compute_dtype())
        mask = mask_cache.get(key)
        if mask is None:
            mask = mask_cache[key] = shift_mask(h, w, m, shift)
    y = window_reverse(attend(window_partition(x, m), mask), m, h, w)
    if shift:
        y = E.roll2d(y, shift, shift)
    return crop_to(y, h0, w0)


def _effective_heads(dim: int, heads: int) -> int:
    """Per-branch head count: split only when the projected dim supports it."""
    if heads > 1 and dim % heads == 0 and dim >= 2 * heads:
        return heads
    return 1


def branch_attention(q: Tensor, k: Tensor, v: Tensor, *, heads: int = 1,
                     bias: Tensor | None = None, mask: np.ndarray | None = None,
                     collect: dict | None = None, collect_key: str | None = None) -> Tensor:
    """Scaled dot-product attention over [nw, T, D] token batches (`engine.attention`).

    With `collect` and `collect_key` given, the [nw, heads, T, T] attention
    weights are stored in `collect` under that key.
    """
    probs = [] if collect is not None and collect_key is not None else None
    out = E.attention(q, k, v, heads=heads, bias=bias, mask=mask, probs=probs)
    if probs:
        collect[collect_key] = probs[0]
    return out


class ACAM(Module):
    """Four-branch adaptive complementary attention over one feature map.

    Input and output are [C, h, w]; extents are padded to window multiples
    internally and cropped back.  `shifted` selects the cyclically shifted
    window arrangement with its wrap mask.
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool,
                 shared_kv: bool = False, rng=None):
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
        self.c8 = max(1, c // 8)
        self.m8 = max(1, (m * m) // 8)
        self.p8 = max(1, m // 8)

        self.bias_spatial = parameter(((2 * m - 1) ** 2, heads), rng=rng, scale=0.02)
        self._rel_index = relative_position_index(m).reshape(-1)
        self.lambdas = Tensor(np.full(4, 0.25), requires_grad=True)
        self._mask_cache: dict = {}

        if shared_kv:
            self.embed_k = Linear(c, self.c8, rng=rng)
            self.embed_v = Linear(c, self.c8, rng=rng)
            self.out_spatial = Linear(self.c8, c, rng=rng, zero=True)
            self.out_channel = Linear(self.c8, c, rng=rng, zero=True)
            self.out_cross_h = Linear(self.c8, c, rng=rng, zero=True)
            self.out_cross_w = Linear(self.c8, c, rng=rng, zero=True)
            self.bias_channel = parameter((self.c8, self.c8), rng=rng, scale=0.02)
            self.heads_channel = _effective_heads(m * m, heads)
            self.heads_cross = _effective_heads(m, heads)
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
            self.heads_channel = _effective_heads(self.m8, heads)
            self.heads_cross = _effective_heads(self.p8, heads)

    def forward(self, x: Tensor, collect: dict | None = None) -> Tensor:
        if x.shape[0] != self.channels:
            raise ConfigurationError(f"expected {self.channels} channels, got {x.shape[0]}")
        branches = self._branches_shared if self.shared_kv else self._branches_separate
        return windowed(x, self.window, self.shift, self._mask_cache,
                        lambda wins, mask: branches(wins, mask, collect))

    def _fuse(self, o_spatial, o_channel, o_cross_h, o_cross_w):
        lam = self.lambdas
        return (o_spatial * lam[0] + o_channel * lam[1]
                + o_cross_h * lam[2] + o_cross_w * lam[3])

    def _branches_separate(self, wins: Tensor, mask, collect):
        c, m = self.channels, self.window
        nw = wins.shape[0]
        grid_tokens = wins.reshape(nw, c, m * m)                  # channel tokens
        sp_tokens = grid_tokens.permute(0, 2, 1)                  # spatial tokens

        # spatial branch: relative-position bias plus shift mask
        o1 = branch_attention(
            self.q_spatial(sp_tokens), self.k_spatial(sp_tokens), self.v_spatial(sp_tokens),
            heads=self.heads, bias=spatial_bias(self.bias_spatial, self._rel_index, m, self.heads),
            mask=mask, collect=collect, collect_key="spatial")
        o1 = self.out_spatial(o1).permute(0, 2, 1).reshape(nw, c, m, m)

        # channel branch: learnable channel-pair bias, no mask
        o2 = branch_attention(
            self.q_channel(grid_tokens), self.k_channel(grid_tokens), self.v_channel(grid_tokens),
            heads=self.heads_channel, bias=self.bias_channel, mask=None,
            collect=collect, collect_key="channel")
        o2 = self.out_channel(o2).reshape(nw, c, m, m)

        # cross C-H: (channel, row) tokens attending along width
        ch_tokens = wins.reshape(nw, c * m, m)
        o3 = branch_attention(
            self.q_cross_h(ch_tokens), self.k_cross_h(ch_tokens), self.v_cross_h(ch_tokens),
            heads=self.heads_cross, collect=collect, collect_key="cross_h")
        o3 = self.out_cross_h(o3).reshape(nw, c, m, m)

        # cross C-W: (channel, column) tokens attending along height
        cw_tokens = wins.permute(0, 1, 3, 2).reshape(nw, c * m, m)
        o4 = branch_attention(
            self.q_cross_w(cw_tokens), self.k_cross_w(cw_tokens), self.v_cross_w(cw_tokens),
            heads=self.heads_cross, collect=collect, collect_key="cross_w")
        o4 = self.out_cross_w(o4).reshape(nw, c, m, m).permute(0, 1, 3, 2)

        return self._fuse(o1, o2, o3, o4)

    def _branches_shared(self, wins: Tensor, mask, collect):
        c, m, c8 = self.channels, self.window, self.c8
        nw = wins.shape[0]
        sp_tokens = wins.reshape(nw, c, m * m).permute(0, 2, 1)   # [nw, m^2, C]
        ke = self.embed_k(sp_tokens)                              # [nw, m^2, c8]
        ve = self.embed_v(sp_tokens)
        kg = ke.permute(0, 2, 1).reshape(nw, c8, m, m)            # grid layout
        vg = ve.permute(0, 2, 1).reshape(nw, c8, m, m)

        # spatial: queries reuse the K embedding
        o1 = branch_attention(ke, ke, ve, heads=self.heads,
                              bias=spatial_bias(self.bias_spatial, self._rel_index, m, self.heads),
                              mask=mask, collect=collect, collect_key="spatial")
        o1 = self.out_spatial(o1).permute(0, 2, 1).reshape(nw, c, m, m)

        kc = kg.reshape(nw, c8, m * m)
        vc = vg.reshape(nw, c8, m * m)
        o2 = branch_attention(kc, kc, vc, heads=self.heads_channel,
                              bias=self.bias_channel,
                              collect=collect, collect_key="channel")
        o2 = self.out_channel(o2.permute(0, 2, 1)).permute(0, 2, 1).reshape(nw, c, m, m)

        kh = kg.reshape(nw, c8 * m, m)
        vh = vg.reshape(nw, c8 * m, m)
        o3 = branch_attention(kh, kh, vh, heads=self.heads_cross,
                              collect=collect, collect_key="cross_h")
        o3 = o3.reshape(nw, c8, m * m).permute(0, 2, 1)
        o3 = self.out_cross_h(o3).permute(0, 2, 1).reshape(nw, c, m, m)

        kw = kg.permute(0, 1, 3, 2).reshape(nw, c8 * m, m)
        vw = vg.permute(0, 1, 3, 2).reshape(nw, c8 * m, m)
        o4 = branch_attention(kw, kw, vw, heads=self.heads_cross,
                              collect=collect, collect_key="cross_w")
        o4 = o4.reshape(nw, c8, m, m).permute(0, 1, 3, 2).reshape(nw, c8, m * m).permute(0, 2, 1)
        o4 = self.out_cross_w(o4).permute(0, 2, 1).reshape(nw, c, m, m)

        return self._fuse(o1, o2, o3, o4)


class WindowAttention(Module):
    """Plain single-branch shifted-window attention (ablation stand-in).

    Same window partition, shift, mask and relative-position bias as ACAM,
    but one spatial branch with full C -> C projections.
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool, rng=None):
        c, m = channels, window
        if c % heads:
            raise ConfigurationError(f"channels {c} not divisible by {heads} heads")
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
        self._rel_index = relative_position_index(m).reshape(-1)
        self._mask_cache: dict = {}

    def forward(self, x: Tensor, collect: dict | None = None) -> Tensor:
        c, m = self.channels, self.window

        def attend(wins: Tensor, mask) -> Tensor:
            nw = wins.shape[0]
            tokens = wins.reshape(nw, c, m * m).permute(0, 2, 1)
            bias = spatial_bias(self.bias, self._rel_index, m, self.heads)
            o = branch_attention(self.q(tokens), self.k(tokens), self.v(tokens),
                                 heads=self.heads, bias=bias, mask=mask,
                                 collect=collect, collect_key="spatial")
            return self.out(o).permute(0, 2, 1).reshape(nw, c, m, m)

        return windowed(x, m, self.shift, self._mask_cache, attend)


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


def attention_macs(c: int, m: int, h: int, w: int, acam: bool = True,
                   shared_kv: bool = False) -> list[dict]:
    """Per-branch multiply counts for one attention layer on an h x w grid.

    The layer is an ACAM (`shared_kv` selecting its mode) or, with `acam`
    False, a WindowAttention, of width c and window m.  Returns rows of
    {module, branch, formula_macs, actual_macs}; the formula column carries
    the closed-form budget the layer family advertises, the actual column
    counts the matmul multiplies the implementation performs (padding
    included, biases and softmax excluded).
    """
    hp = -(-h // m) * m
    wp = -(-w // m) * m
    hw = hp * wp
    nw = (hp // m) * (wp // m)
    t_sp = m * m

    if not acam:
        name = f"wmsa[C={c},M={m}]"
        proj = 3 * t_sp * c * c * nw
        attn = 2 * t_sp * t_sp * c * nw
        outp = t_sp * c * c * nw
        return [
            {"module": name, "branch": "projection", "formula_macs": 3 * hw * c * c, "actual_macs": proj},
            {"module": name, "branch": "attention_spatial", "formula_macs": 2 * m * m * hw * c, "actual_macs": attn},
            {"module": name, "branch": "output_projection", "formula_macs": hw * c * c, "actual_macs": outp},
            {"module": name, "branch": "total", "formula_macs": cost_swmsa(hp, wp, c, m), "actual_macs": proj + attn + outp},
        ]

    c8, m8, p8 = max(1, c // 8), max(1, m * m // 8), max(1, m // 8)
    name = f"acam[C={c},M={m}{',shared' if shared_kv else ''}]"
    per_branch_formula = (m * m * hw * c) // 4

    if shared_kv:
        proj = 2 * t_sp * c * c8 * nw
        attn_sp = 2 * t_sp * t_sp * c8 * nw
        attn_ch = 2 * c8 * c8 * t_sp * nw
        attn_xh = 2 * (c8 * m) ** 2 * m * nw
        attn_xw = attn_xh
        outp = 4 * t_sp * c8 * c * nw
    else:
        proj = (3 * t_sp * c * c8 + 3 * c * t_sp * m8 + 2 * 3 * (c * m) * m * p8) * nw
        attn_sp = 2 * t_sp * t_sp * c8 * nw
        attn_ch = 2 * c * c * m8 * nw
        attn_xh = 2 * (c * m) ** 2 * p8 * nw
        attn_xw = attn_xh
        outp = (t_sp * c8 * c + c * m8 * t_sp + 2 * (c * m) * p8 * m) * nw

    total_actual = proj + attn_sp + attn_ch + attn_xh + attn_xw + outp
    return [
        {"module": name, "branch": "projection", "formula_macs": (hw * c * c) // 4, "actual_macs": proj},
        {"module": name, "branch": "attention_spatial", "formula_macs": per_branch_formula, "actual_macs": attn_sp},
        {"module": name, "branch": "attention_channel", "formula_macs": per_branch_formula, "actual_macs": attn_ch},
        {"module": name, "branch": "attention_cross_h", "formula_macs": per_branch_formula, "actual_macs": attn_xh},
        {"module": name, "branch": "attention_cross_w", "formula_macs": per_branch_formula, "actual_macs": attn_xw},
        {"module": name, "branch": "output_projection", "formula_macs": 0, "actual_macs": outp},
        {"module": name, "branch": "total", "formula_macs": cost_acam(hp, wp, c, m), "actual_macs": total_actual},
    ]


def count_actual_macs(layer, h: int, w: int) -> list[dict]:
    """`attention_macs` rows of an ACAM or WindowAttention layer on an h x w grid."""
    acam = isinstance(layer, ACAM)
    return attention_macs(layer.channels, layer.window, h, w, acam=acam,
                          shared_kv=acam and layer.shared_kv)


def write_mac_report(path, rows) -> None:
    """CSV with columns module,branch,formula_macs,actual_macs."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["module", "branch", "formula_macs", "actual_macs"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
