"""The dual-branch segmentation network.

Seven stages shared by two parallel branches: a CNN branch built from
dynamic deformable convolutions and a transformer branch built from window
attention block stacks.  Stages 0-2 encode (halving the grid, doubling the
width), stage 3 is the bottleneck, stages 4-6 decode back up with skip
connections inside each branch and cross-branch fusion joining the two at
every decoder stage.  Three 1x1 heads emit logits: one per branch and one
from the concatenated final features.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import engine as E
from .engine import Tensor, as_tensor
from .errors import ConfigurationError, UsageError
from .attention import ACAM, WindowAttention, count_actual_macs
from .blocks import TransformerBlock, grid_to_tokens, tokens_to_grid
from .ddconv import DDConv
from .nn import ChannelNorm, Conv2d, Linear, Module

N_STAGES = 7


# ---------------------------------------------------------------- config

@dataclass
class TecNetConfig:
    name: str
    layer_numbers: tuple
    heads: tuple
    base_width: int
    window: int
    patch: int
    input_size: int
    num_classes: int = 1
    n_kernels: int = 4
    use_ddconv: bool = True
    use_acam: bool = True
    use_lpm: bool = True
    shared_kv: bool = False

    def __post_init__(self):
        self.layer_numbers = tuple(int(x) for x in self.layer_numbers)
        self.heads = tuple(int(x) for x in self.heads)
        self.validate()

    def validate(self) -> None:
        if len(self.layer_numbers) != N_STAGES or len(self.heads) != N_STAGES:
            raise ConfigurationError(
                f"layer_numbers and heads must have {N_STAGES} entries, got "
                f"{len(self.layer_numbers)} and {len(self.heads)}")
        for i in range(N_STAGES):
            j = N_STAGES - 1 - i
            if self.layer_numbers[i] != self.layer_numbers[j]:
                raise ConfigurationError(f"layer_numbers not symmetric at stage {i}")
            if self.heads[i] != self.heads[j]:
                raise ConfigurationError(f"heads not symmetric at stage {i}")
        if any(n < 1 for n in self.layer_numbers) or any(h < 1 for h in self.heads):
            raise ConfigurationError("layer_numbers and heads must be positive")
        if self.patch < 1 or self.input_size % self.patch:
            raise ConfigurationError(
                f"patch {self.patch} must divide input size {self.input_size}")
        if self.patch & (self.patch - 1):
            raise ConfigurationError(f"patch must be a power of two, got {self.patch}")
        g0 = self.input_size // self.patch
        if g0 % 8:
            raise ConfigurationError(
                f"stage-0 grid {g0} must be divisible by 8 for three halvings")
        for i in range(N_STAGES):
            c = self.stage_width(i)
            if self.use_acam and c % (8 * self.heads[i]):
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by 8*heads={8 * self.heads[i]}")
            if not self.use_acam and c % self.heads[i]:
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by heads={self.heads[i]}")
        if self.n_kernels < 1:
            raise ConfigurationError("n_kernels must be at least 1")

    def stage_width(self, i: int) -> int:
        return self.base_width * 2 ** min(i, N_STAGES - 1 - i)

    def stage_grid(self, i: int) -> int:
        return self.input_size // self.patch // 2 ** min(i, N_STAGES - 1 - i)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["layer_numbers"] = list(self.layer_numbers)
        d["heads"] = list(self.heads)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TecNetConfig":
        required = ["name", "layer_numbers", "heads", "base_width", "window",
                    "patch", "input_size", "num_classes", "n_kernels"]
        missing = [k for k in required if k not in d]
        if missing:
            raise ConfigurationError(f"config missing required keys: {missing}")
        known = set(required) | {"use_ddconv", "use_acam", "use_lpm", "shared_kv"}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigurationError(f"config has unknown keys: {unknown}")
        return cls(
            name=d["name"], layer_numbers=d["layer_numbers"], heads=d["heads"],
            base_width=d["base_width"], window=d["window"], patch=d["patch"],
            input_size=d["input_size"], num_classes=d["num_classes"],
            n_kernels=d["n_kernels"],
            use_ddconv=d.get("use_ddconv", True),
            use_acam=d.get("use_acam", True),
            use_lpm=d.get("use_lpm", True),
            shared_kv=d.get("shared_kv", False),
        )


def nano_config(**overrides) -> TecNetConfig:
    base = dict(name="nano", layer_numbers=(1, 1, 2, 1, 2, 1, 1),
                heads=(1, 2, 4, 8, 4, 2, 1), base_width=16, window=4,
                patch=4, input_size=64, num_classes=1, n_kernels=4)
    base.update(overrides)
    return TecNetConfig(**base)


def tiny_config(**overrides) -> TecNetConfig:
    base = dict(name="tiny", layer_numbers=(2, 2, 6, 2, 6, 2, 2),
                heads=(3, 6, 12, 24, 12, 6, 3), base_width=96, window=7,
                patch=4, input_size=224, num_classes=1, n_kernels=4)
    base.update(overrides)
    return TecNetConfig(**base)


def base_config(**overrides) -> TecNetConfig:
    base = dict(name="base", layer_numbers=(2, 2, 18, 2, 18, 2, 2),
                heads=(4, 8, 16, 32, 16, 8, 4), base_width=96, window=7,
                patch=4, input_size=224, num_classes=1, n_kernels=4)
    base.update(overrides)
    return TecNetConfig(**base)


PRESETS = {"nano": nano_config, "tiny": tiny_config, "base": base_config}


# ---------------------------------------------------------------- submodules

class PatchEmbed(Module):
    """Non-overlapping p x p linear projection of the image to width D."""

    def __init__(self, c_img: int, patch: int, d: int, rng=None):
        self.c_img = c_img
        self.patch = patch
        self.proj = Linear(c_img * patch * patch, d, rng=rng)

    def forward(self, image: Tensor) -> Tensor:
        c, h, w = image.shape
        p = self.patch
        if c != self.c_img or h % p or w % p:
            raise ConfigurationError(
                f"patch embed needs [{self.c_img}, k*{p}, k*{p}] input, got {image.shape}")
        gh, gw = h // p, w // p
        t = image.reshape(c, gh, p, gw, p)
        t = t.permute(1, 3, 0, 2, 4)                  # [gh, gw, c, p, p]
        t = t.reshape(gh * gw, c * p * p)
        return self.proj(t)                           # [N, D]


class CnnStem(Module):
    """Stride-2 conv chain downsampling the image by the patch factor."""

    def __init__(self, c_img: int, patch: int, d: int, rng=None):
        levels = patch.bit_length() - 1               # patch is a power of two
        self.convs = []
        if levels == 0:
            self.convs.append(Conv2d(c_img, d, 1, rng=rng))
        else:
            c_in = c_img
            for lv in range(levels):
                c_out = d // 2 ** (levels - 1 - lv)
                self.convs.append(Conv2d(c_in, c_out, 3, rng=rng, stride=2, padding=1))
                c_in = c_out

    def forward(self, image: Tensor) -> Tensor:
        x = image
        for i, conv in enumerate(self.convs):
            x = conv(x)
            if i + 1 < len(self.convs):
                x = E.gelu(x)
        return x


class CnnStage(Module):
    """Two conv units: (DDConv or plain conv) -> channel norm -> GELU."""

    UNITS = 2

    def __init__(self, channels: int, use_ddconv: bool, n_kernels: int, rng=None):
        self.convs = []
        self.norms = []
        for _ in range(self.UNITS):
            if use_ddconv:
                self.convs.append(DDConv(channels, channels, 3, n_kernels=n_kernels, rng=rng))
            else:
                self.convs.append(Conv2d(channels, channels, 3, rng=rng))
            self.norms.append(ChannelNorm(channels))

    def forward(self, x: Tensor) -> Tensor:
        for conv, norm in zip(self.convs, self.norms):
            x = E.gelu(norm(conv(x)))
        return x


class TransStage(Module):
    """layer_numbers[i] blocks alternating plain/shifted windows."""

    def __init__(self, channels: int, depth: int, window: int, heads: int,
                 use_acam: bool, use_lpm: bool, shared_kv: bool, rng=None):
        self.blocks = [
            TransformerBlock(channels, window, heads, shifted=bool(b % 2),
                             use_acam=use_acam, use_lpm=use_lpm,
                             shared_kv=shared_kv, rng=rng)
            for b in range(depth)
        ]

    def forward(self, tokens: Tensor, grid: tuple[int, int],
                collect: dict | None = None) -> Tensor:
        for block in self.blocks:
            tokens = block(tokens, grid, collect=collect)
        return tokens


class PatchMerge(Module):
    """Transformer-branch downsample: 2x2 token groups -> one 2C token."""

    def __init__(self, channels: int, rng=None):
        self.reduce = Linear(4 * channels, 2 * channels, rng=rng)

    def forward(self, tokens: Tensor, grid: tuple[int, int]) -> Tensor:
        h, w = grid
        if h % 2 or w % 2:
            raise ConfigurationError(f"patch merge needs even extents, got {h}x{w}")
        c = tokens.shape[1]
        t = tokens.reshape(h // 2, 2, w // 2, 2, c)
        t = t.permute(0, 2, 1, 3, 4)                   # [h/2, w/2, 2, 2, C]
        t = t.reshape(h * w // 4, 4 * c)
        return self.reduce(t)


class PatchExpand(Module):
    """Transformer-branch upsample: one token -> 2x2 tokens at half width."""

    def __init__(self, channels: int, rng=None):
        if channels % 2:
            raise ConfigurationError(f"patch expand needs even width, got {channels}")
        self.grow = Linear(channels, 2 * channels, rng=rng)

    def forward(self, tokens: Tensor, grid: tuple[int, int]) -> Tensor:
        h, w = grid
        c = tokens.shape[1]
        t = self.grow(tokens)                          # [N, 2C]
        t = t.reshape(h, w, 2, 2, c // 2)
        t = t.permute(0, 2, 1, 3, 4)                   # [h, 2, w, 2, C/2]
        return t.reshape(h * w * 4, c // 2)


def cross_branch_fuse(mix: Conv2d, a: Tensor, b: Tensor) -> Tensor:
    """Concat two same-shape feature maps on channels, 1x1-conv back down."""
    if a.shape != b.shape:
        raise ConfigurationError(f"fusion operands differ: {a.shape} vs {b.shape}")
    return mix(E.concat([a, b], axis=0))


# ---------------------------------------------------------------- the model

class TecNet(Module):
    def __init__(self, cfg: TecNetConfig, seed: int = 0, c_img: int = 1):
        cfg.validate()
        self.cfg = cfg
        self.c_img = c_img
        rng = np.random.default_rng(seed)
        d = cfg.base_width
        w = cfg.stage_width

        self.patch_embed = PatchEmbed(c_img, cfg.patch, d, rng=rng)
        self.cnn_stem = CnnStem(c_img, cfg.patch, d, rng=rng)

        self.cnn_stages = [CnnStage(w(i), cfg.use_ddconv, cfg.n_kernels, rng=rng)
                           for i in range(N_STAGES)]
        self.trans_stages = [
            TransStage(w(i), cfg.layer_numbers[i], cfg.window, cfg.heads[i],
                       cfg.use_acam, cfg.use_lpm, cfg.shared_kv, rng=rng)
            for i in range(N_STAGES)
        ]

        # encoder transitions after stages 0,1,2
        if cfg.use_ddconv:
            self.cnn_down = [DDConv(w(i), w(i + 1), 3, n_kernels=cfg.n_kernels,
                                    stride=2, rng=rng) for i in range(3)]
        else:
            self.cnn_down = [Conv2d(w(i), w(i + 1), 3, rng=rng, stride=2, padding=1)
                             for i in range(3)]
        self.trans_down = [PatchMerge(w(i), rng=rng) for i in range(3)]

        # decoder transitions before stages 4,5,6
        self.cnn_up = [Conv2d(w(i), w(i + 1), 3, rng=rng) for i in range(3, 6)]
        self.trans_up = [PatchExpand(w(i), rng=rng) for i in range(3, 6)]

        # per-branch skip merges and cross-branch fusions at stages 4,5,6
        self.cnn_skip = [Conv2d(2 * w(i), w(i), 1, rng=rng) for i in range(4, 7)]
        self.trans_skip = [Linear(2 * w(i), w(i), rng=rng) for i in range(4, 7)]
        self.cnn_fuse = [Conv2d(2 * w(i), w(i), 1, rng=rng) for i in range(4, 7)]
        self.trans_fuse = [Conv2d(2 * w(i), w(i), 1, rng=rng) for i in range(4, 7)]

        self.head_cnn = Conv2d(d, cfg.num_classes, 1, rng=rng)
        self.head_trans = Conv2d(d, cfg.num_classes, 1, rng=rng)
        self.head_tec = Conv2d(2 * d, cfg.num_classes, 1, rng=rng)

    # -- forward ----------------------------------------------------------

    def forward(self, image, collect: dict | None = None) -> dict:
        cfg = self.cfg
        image = as_tensor(image)
        if image.shape != (self.c_img, cfg.input_size, cfg.input_size):
            raise UsageError(
                f"expected input {(self.c_img, cfg.input_size, cfg.input_size)}, got {image.shape}")

        def grid(i: int) -> tuple[int, int]:
            g = cfg.stage_grid(i)
            return (g, g)

        def note(tag: str, x: Tensor) -> None:
            if collect is not None:
                collect[tag] = x.data.copy()

        c = self.cnn_stem(image)                       # [D, g0, g0]
        t = self.patch_embed(image)                    # [N0, D]

        skips_c, skips_t = [], []
        for i in range(3):
            c = self.cnn_stages[i](c)
            t = self.trans_stages[i](t, grid(i), collect=collect)
            note(f"cnn_stage{i}", c)
            note(f"trans_stage{i}", tokens_to_grid(t, *grid(i)))
            skips_c.append(c)
            skips_t.append(t)
            c = self.cnn_down[i](c)
            t = self.trans_down[i](t, grid(i))

        c = self.cnn_stages[3](c)
        t = self.trans_stages[3](t, grid(3), collect=collect)
        note("cnn_stage3", c)
        note("trans_stage3", tokens_to_grid(t, *grid(3)))

        for j, i in enumerate(range(4, 7)):
            g = grid(i)
            c = self.cnn_up[j](E.upsample_nearest(c, 2))
            t = self.trans_up[j](t, grid(i - 1))
            # skip connections from the mirrored encoder stage
            c = self.cnn_skip[j](E.concat([c, skips_c[6 - i]], axis=0))
            t = self.trans_skip[j](E.concat([t, skips_t[6 - i]], axis=1))
            # cross-branch fusion: each branch sees the other's features
            tg = tokens_to_grid(t, *g)
            c_fused = cross_branch_fuse(self.cnn_fuse[j], c, tg)
            t_fused = cross_branch_fuse(self.trans_fuse[j], tg, c)
            c = self.cnn_stages[i](c_fused)
            t = self.trans_stages[i](grid_to_tokens(t_fused), g, collect=collect)
            note(f"cnn_stage{i}", c)
            note(f"trans_stage{i}", tokens_to_grid(t, *g))

        tg = tokens_to_grid(t, *grid(6))
        y_cnn = E.upsample_bilinear(self.head_cnn(c), cfg.patch)
        y_trans = E.upsample_bilinear(self.head_trans(tg), cfg.patch)
        y_tec = E.upsample_bilinear(self.head_tec(E.concat([c, tg], axis=0)), cfg.patch)
        return {"y_cnn": y_cnn, "y_trans": y_trans, "y_tec": y_tec}


# ---------------------------------------------------------------- accounting

def attention_probe(cfg: TecNetConfig, stage: int):
    """An unshifted attention layer of the kind and size `stage` runs."""
    c, heads, rng = cfg.stage_width(stage), cfg.heads[stage], np.random.default_rng(0)
    if cfg.use_acam:
        return ACAM(c, cfg.window, heads, shifted=False, shared_kv=cfg.shared_kv, rng=rng)
    return WindowAttention(c, cfg.window, heads, shifted=False, rng=rng)


def _linear_n(d_in, d_out, bias=True):
    return d_in * d_out + (d_out if bias else 0)


def _conv_n(c_in, c_out, k, bias=True):
    return c_out * c_in * k * k + (c_out if bias else 0)


def _ddconv_n(c_in, c_out, k, n_kernels):
    kernels = n_kernels * c_out * c_in * k * k
    return (kernels + c_out                     # candidate kernels + bias
            + _linear_n(c_in, n_kernels)        # blend gate
            + _conv_n(c_in, 2 * k * k, k))      # offset head


def _acam_n(c, m, heads, shared_kv):
    c8 = max(1, c // 8)
    m8 = max(1, (m * m) // 8)
    p8 = max(1, m // 8)
    n = (2 * m - 1) ** 2 * heads + 4            # spatial bias table + lambdas
    if shared_kv:
        n += 2 * _linear_n(c, c8)               # shared K/V embeddings
        n += 4 * _linear_n(c8, c)               # per-branch output maps
        n += c8 * c8                            # channel-pair bias
    else:
        n += 3 * _linear_n(c, c8) + _linear_n(c8, c)
        n += 3 * _linear_n(m * m, m8) + _linear_n(m8, m * m)
        n += c * c
        n += 2 * (3 * _linear_n(m, p8) + _linear_n(p8, m))
    return n


def _wmsa_n(c, m, heads):
    return 4 * _linear_n(c, c) + (2 * m - 1) ** 2 * heads


def _lpm_n(d):
    return _linear_n(d, 2 * d) + (2 * d * 9 + 2 * d) + _linear_n(4 * d, d)


def _mlp_n(d):
    return _linear_n(d, 4 * d) + _linear_n(4 * d, d)


def _block_n(cfg: TecNetConfig, c, heads):
    n = 4 * c                                    # two layernorms
    if cfg.use_acam:
        n += _acam_n(c, cfg.window, heads, cfg.shared_kv)
    else:
        n += _wmsa_n(c, cfg.window, heads)
    n += _lpm_n(c) if cfg.use_lpm else _mlp_n(c)
    return n


def count_params(cfg: TecNetConfig, c_img: int = 1) -> dict:
    """Analytic per-module parameter counts; must match enumeration exactly."""
    d = cfg.base_width
    w = cfg.stage_width
    counts: dict = {}

    counts["patch_embed"] = _linear_n(c_img * cfg.patch ** 2, d)
    levels = cfg.patch.bit_length() - 1
    stem = 0
    if levels == 0:
        stem = _conv_n(c_img, d, 1)
    else:
        c_in = c_img
        for lv in range(levels):
            c_out = d // 2 ** (levels - 1 - lv)
            stem += _conv_n(c_in, c_out, 3)
            c_in = c_out
    counts["cnn_stem"] = stem

    conv_unit = (lambda c: _ddconv_n(c, c, 3, cfg.n_kernels)) if cfg.use_ddconv \
        else (lambda c: _conv_n(c, c, 3))
    for i in range(N_STAGES):
        c = w(i)
        counts[f"stage{i}.cnn"] = CnnStage.UNITS * (conv_unit(c) + 2 * c)
        counts[f"stage{i}.trans"] = cfg.layer_numbers[i] * _block_n(cfg, c, cfg.heads[i])

    for i in range(3):
        if cfg.use_ddconv:
            counts[f"down{i}.cnn"] = _ddconv_n(w(i), w(i + 1), 3, cfg.n_kernels)
        else:
            counts[f"down{i}.cnn"] = _conv_n(w(i), w(i + 1), 3)
        counts[f"down{i}.trans"] = _linear_n(4 * w(i), 2 * w(i))

    for j, i in enumerate(range(3, 6)):
        counts[f"up{j}.cnn"] = _conv_n(w(i), w(i + 1), 3)
        counts[f"up{j}.trans"] = _linear_n(w(i), 2 * w(i))

    for j, i in enumerate(range(4, 7)):
        counts[f"skip{j}.cnn"] = _conv_n(2 * w(i), w(i), 1)
        counts[f"skip{j}.trans"] = _linear_n(2 * w(i), w(i))
        counts[f"fuse{j}.cnn"] = _conv_n(2 * w(i), w(i), 1)
        counts[f"fuse{j}.trans"] = _conv_n(2 * w(i), w(i), 1)

    counts["heads"] = (_conv_n(d, cfg.num_classes, 1) * 2
                       + _conv_n(2 * d, cfg.num_classes, 1))
    counts["total"] = sum(v for k, v in counts.items() if k != "total")
    return counts


def _ddconv_macs(c_in, c_out, k, n_kernels, h_in, w_in, stride=1):
    ho = (h_in - 1) // stride + 1
    wo = (w_in - 1) // stride + 1
    macs = k * k * c_in * (2 * k * k) * ho * wo     # offset head conv
    macs += c_in * n_kernels                        # blend gate
    macs += n_kernels * c_out * c_in * k * k        # kernel blending
    macs += 4 * c_in * k * k * ho * wo              # bilinear taps (4 muls each)
    macs += c_in * k * k * c_out * ho * wo          # main product
    return macs


def count_flops(cfg: TecNetConfig, input_size: int | None = None, c_img: int = 1) -> dict:
    """Per-module multiply-accumulate counts for one forward pass.

    Counts matmul/conv multiplies (attention per count_actual_macs, bilinear
    taps at 4 multiplies per sample); pointwise activations, norms and
    softmax are excluded.
    """
    size = cfg.input_size if input_size is None else input_size
    if size % cfg.patch:
        raise ConfigurationError(f"input {size} not divisible by patch {cfg.patch}")
    d = cfg.base_width
    w = cfg.stage_width
    g0 = size // cfg.patch

    def grid(i: int) -> int:
        return g0 // 2 ** min(i, N_STAGES - 1 - i)

    macs: dict = {}
    macs["patch_embed"] = g0 * g0 * _linear_n(c_img * cfg.patch ** 2, d, bias=False)
    levels = cfg.patch.bit_length() - 1
    stem = 0
    if levels == 0:
        stem = size * size * c_img * d
    else:
        c_in, s = c_img, size
        for lv in range(levels):
            c_out = d // 2 ** (levels - 1 - lv)
            s //= 2
            stem += 9 * c_in * c_out * s * s
            c_in = c_out
    macs["cnn_stem"] = stem

    for i in range(N_STAGES):
        c, g = w(i), grid(i)
        if cfg.use_ddconv:
            unit = _ddconv_macs(c, c, 3, cfg.n_kernels, g, g)
        else:
            unit = 9 * c * c * g * g
        macs[f"stage{i}.cnn"] = CnnStage.UNITS * unit

        attn_rows = count_actual_macs(attention_probe(cfg, i), g, g)
        per_block = next(r["actual_macs"] for r in attn_rows if r["branch"] == "total")
        n_tok = g * g
        if cfg.use_lpm:
            per_block += n_tok * c * 2 * c + n_tok * 2 * c * 9 + n_tok * 4 * c * c
        else:
            per_block += n_tok * c * 4 * c * 2
        macs[f"stage{i}.trans"] = cfg.layer_numbers[i] * per_block

    for i in range(3):
        g = grid(i)
        if cfg.use_ddconv:
            macs[f"down{i}.cnn"] = _ddconv_macs(w(i), w(i + 1), 3, cfg.n_kernels, g, g, stride=2)
        else:
            macs[f"down{i}.cnn"] = 9 * w(i) * w(i + 1) * (g // 2) ** 2
        macs[f"down{i}.trans"] = (g // 2) ** 2 * 4 * w(i) * 2 * w(i)

    for j, i in enumerate(range(3, 6)):
        g_out = grid(i + 1)
        macs[f"up{j}.cnn"] = 9 * w(i) * w(i + 1) * g_out * g_out
        macs[f"up{j}.trans"] = grid(i) ** 2 * w(i) * 2 * w(i)

    for j, i in enumerate(range(4, 7)):
        g = grid(i)
        macs[f"skip{j}.cnn"] = 2 * w(i) * w(i) * g * g
        macs[f"skip{j}.trans"] = g * g * 2 * w(i) * w(i)
        macs[f"fuse{j}.cnn"] = 2 * w(i) * w(i) * g * g
        macs[f"fuse{j}.trans"] = 2 * w(i) * w(i) * g * g
    g6 = grid(6)
    macs["heads"] = (2 * d * cfg.num_classes * g6 * g6
                     + 2 * d * cfg.num_classes * g6 * g6)
    macs["total"] = sum(v for k, v in macs.items() if k != "total")
    return macs
