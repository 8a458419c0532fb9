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

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import engine as E
from .engine import Tensor, as_tensor
from .errors import ConfigurationError, UsageError
from .attention import attention_macs
from .blocks import TransformerBlock
from .ddconv import DDConv
from .nn import ChannelNorm, Conv2d, Linear, Module

N_STAGES = 7


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# TecNetConfig field annotation -> value check; the annotations are strings
# because of `from __future__ import annotations`
_TYPE_CHECKS = {"str": lambda v: isinstance(v, str), "int": _is_int,
                "bool": lambda v: isinstance(v, bool)}


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
        for key in ("layer_numbers", "heads"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
                raise ConfigurationError(
                    f"config field {key} must be a list of ints, got {value!r}")
        self.layer_numbers = tuple(int(x) for x in self.layer_numbers)
        self.heads = tuple(int(x) for x in self.heads)
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            check = _TYPE_CHECKS.get(f.type)
            if check is not None and not check(value):
                raise ConfigurationError(
                    f"config field {f.name} must be of type {f.type}, got {value!r}")
        for key in ("num_classes", "n_kernels"):
            if getattr(self, key) < 1:
                raise ConfigurationError(
                    f"config field {key} must be at least 1, got {getattr(self, key)}")
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
        if self.window < 1 or self.base_width < 1:
            raise ConfigurationError(
                f"window and base_width must be positive, got {self.window} and {self.base_width}")
        if self.patch < 1 or self.input_size % self.patch:
            raise ConfigurationError(
                f"patch {self.patch} must divide input size {self.input_size}")
        if self.patch & (self.patch - 1):
            raise ConfigurationError(f"patch must be a power of two, got {self.patch}")
        g0 = self.input_size // self.patch
        if g0 < 8 or g0 % 8:
            raise ConfigurationError(
                f"stage-0 grid {g0} must be a positive multiple of 8 for three halvings")
        for i in range(N_STAGES):
            c = self.stage_width(i)
            if self.use_acam and c % (8 * self.heads[i]):
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by 8*heads={8 * self.heads[i]}")
            if not self.use_acam and c % self.heads[i]:
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by heads={self.heads[i]}")

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
        if not isinstance(d, dict):
            raise ConfigurationError(f"config must be an object, got {type(d).__name__}")
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
    """Non-overlapping p x p linear projection of the image to a [g, g, D] map."""

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
        return self.proj(t.reshape(gh, gw, c * p * p))


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

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x


class PatchMerge(Module):
    """Transformer-branch downsample: each 2x2 group of [h, w, C] -> one 2C vector."""

    def __init__(self, channels: int, rng=None):
        self.reduce = Linear(4 * channels, 2 * channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        if h % 2 or w % 2:
            raise ConfigurationError(f"patch merge needs even extents, got {h}x{w}")
        t = x.reshape(h // 2, 2, w // 2, 2, c)
        t = t.permute(0, 2, 1, 3, 4)                   # [h/2, w/2, 2, 2, C]
        return self.reduce(t.reshape(h // 2, w // 2, 4 * c))


class PatchExpand(Module):
    """Transformer-branch upsample: [h, w, C] -> [2h, 2w, C/2], child (a, b) of (i, j) at (2i+a, 2j+b)."""

    def __init__(self, channels: int, rng=None):
        if channels % 2:
            raise ConfigurationError(f"patch expand needs even width, got {channels}")
        self.grow = Linear(channels, 2 * channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        t = self.grow(x).reshape(h, w, 2, 2, c // 2)
        t = t.permute(0, 2, 1, 3, 4)                   # [h, 2, w, 2, C/2]
        return t.reshape(2 * h, 2 * w, c // 2)


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

        def note(i: int, c: Tensor, t: Tensor) -> None:
            if collect is not None:   # both maps as [C, h, w]
                collect[f"cnn_stage{i}"] = c.data.copy()
                collect[f"trans_stage{i}"] = t.data.transpose(2, 0, 1).copy()

        c = self.cnn_stem(image)                       # [D, g0, g0]
        t = self.patch_embed(image)                    # [g0, g0, D]

        skips_c, skips_t = [], []
        for i in range(3):
            c = self.cnn_stages[i](c)
            t = self.trans_stages[i](t)
            note(i, c, t)
            skips_c.append(c)
            skips_t.append(t)
            c = self.cnn_down[i](c)
            t = self.trans_down[i](t)

        c = self.cnn_stages[3](c)
        t = self.trans_stages[3](t)
        note(3, c, t)

        for j, i in enumerate(range(4, 7)):
            c = self.cnn_up[j](E.upsample_nearest(c, 2))
            t = self.trans_up[j](t)
            # skip connections from the mirrored encoder stage
            c = self.cnn_skip[j](E.concat([c, skips_c[6 - i]], axis=0))
            t = self.trans_skip[j](E.concat([t, skips_t[6 - i]], axis=2))
            # cross-branch fusion: each branch sees the other's features
            tg = t.permute(2, 0, 1)
            c_fused = cross_branch_fuse(self.cnn_fuse[j], c, tg)
            t_fused = cross_branch_fuse(self.trans_fuse[j], tg, c)
            c = self.cnn_stages[i](c_fused)
            t = self.trans_stages[i](t_fused.permute(1, 2, 0))
            note(i, c, t)

        tg = t.permute(2, 0, 1)
        y_cnn = E.upsample_bilinear(self.head_cnn(c), cfg.patch)
        y_trans = E.upsample_bilinear(self.head_trans(tg), cfg.patch)
        y_tec = E.upsample_bilinear(self.head_tec(E.concat([c, tg], axis=0)), cfg.patch)
        return {"y_cnn": y_cnn, "y_trans": y_trans, "y_tec": y_tec}


# ---------------------------------------------------------------- accounting

def attention_rows(cfg: TecNetConfig, stage: int) -> list[dict]:
    """`attention_macs` rows of one attention layer of `stage`."""
    g = cfg.stage_grid(stage)
    return attention_macs(cfg.stage_width(stage), cfg.window, g, g,
                          acam=cfg.use_acam, shared_kv=cfg.shared_kv)


def _linear(d_in, d_out, n=1):
    """(params, MACs) of a biased Linear applied at n positions."""
    return d_in * d_out + d_out, n * d_in * d_out


def _conv(c_in, c_out, k, n=1):
    """(params, MACs) of a biased k x k Conv2d with n output positions."""
    return c_out * c_in * k * k + c_out, n * c_in * c_out * k * k


def _sum(*costs, times=1):
    """Element-wise sum of (params, MACs) pairs, scaled by `times`."""
    return tuple(times * sum(part) for part in zip(*costs))


def _ddconv(c_in, c_out, k, n_kernels, n):
    """(params, MACs) of a DDConv with n output positions: candidate kernels
    and bias, their per-image blend, the bilinear taps (4 multiplies each),
    the main product, the blend gate and the offset head."""
    taps = c_in * k * k
    own = (n_kernels * c_out * taps + c_out,
           n_kernels * c_out * taps + 4 * taps * n + taps * c_out * n)
    return _sum(own, _linear(c_in, n_kernels), _conv(c_in, 2 * k * k, k, n))


def _attention(cfg: TecNetConfig, stage: int):
    """(params, MACs) of one attention layer of `stage`.

    MACs are the "total" row of `attention_rows`; parameters stay arithmetic
    so enumeration can check them.
    """
    c, m, heads = cfg.stage_width(stage), cfg.window, cfg.heads[stage]
    macs = attention_rows(cfg, stage)[-1]["actual_macs"]

    def lin(d_in, d_out):
        return _linear(d_in, d_out)[0]

    n = (2 * m - 1) ** 2 * heads                # spatial bias table
    if not cfg.use_acam:
        return n + 4 * lin(c, c), macs
    c8, m8, p8 = max(1, c // 8), max(1, m * m // 8), max(1, m // 8)
    n += 4                                      # branch-fusion lambdas
    if cfg.shared_kv:
        n += 2 * lin(c, c8)                     # shared K/V embeddings
        n += 4 * lin(c8, c)                     # per-branch output maps
        n += c8 * c8                            # channel-pair bias
    else:
        n += 3 * lin(c, c8) + lin(c8, c)
        n += 3 * lin(m * m, m8) + lin(m8, m * m)
        n += c * c
        n += 2 * (3 * lin(m, p8) + lin(p8, m))
    return n, macs


def _block(cfg: TecNetConfig, stage: int):
    """(params, MACs) of one transformer block of `stage`."""
    c, n = cfg.stage_width(stage), cfg.stage_grid(stage) ** 2
    if cfg.use_lpm:   # the ghost depthwise 3x3 costs a conv with one input channel
        mlp = _sum(_linear(c, 2 * c, n), _conv(1, 2 * c, 3, n), _linear(4 * c, c, n))
    else:
        mlp = _sum(_linear(c, 4 * c, n), _linear(4 * c, c, n))
    norms = (4 * c, 0)                          # two layernorms, gain and bias
    return _sum(norms, _attention(cfg, stage), mlp)


def _accounting(cfg: TecNetConfig, c_img: int = 1) -> dict:
    """{module key: (params, MACs)} of TecNet(cfg) for one forward pass.

    MACs count matmul/conv multiplies (attention per `attention_macs`,
    bilinear taps at 4 multiplies per sample); pointwise activations, norms
    and softmax are excluded.
    """
    d, w, nk = cfg.base_width, cfg.stage_width, cfg.n_kernels

    def n(i: int) -> int:
        return cfg.stage_grid(i) ** 2

    def conv3(c_in, c_out, n_out):
        if cfg.use_ddconv:
            return _ddconv(c_in, c_out, 3, nk, n_out)
        return _conv(c_in, c_out, 3, n_out)

    acct = {"patch_embed": _linear(c_img * cfg.patch ** 2, d, n(0))}
    levels = cfg.patch.bit_length() - 1
    if levels == 0:
        acct["cnn_stem"] = _conv(c_img, d, 1, cfg.input_size ** 2)
    else:
        stem, c_in, s = [], c_img, cfg.input_size
        for lv in range(levels):
            c_out, s = d // 2 ** (levels - 1 - lv), s // 2
            stem.append(_conv(c_in, c_out, 3, s * s))
            c_in = c_out
        acct["cnn_stem"] = _sum(*stem)

    for i in range(N_STAGES):
        norm = (2 * w(i), 0)                    # channel norm, gain and bias
        acct[f"stage{i}.cnn"] = _sum(conv3(w(i), w(i), n(i)), norm, times=CnnStage.UNITS)
        acct[f"stage{i}.trans"] = _sum(_block(cfg, i), times=cfg.layer_numbers[i])

    for i in range(3):
        acct[f"down{i}.cnn"] = conv3(w(i), w(i + 1), n(i + 1))
        acct[f"down{i}.trans"] = _linear(4 * w(i), 2 * w(i), n(i + 1))

    for j, i in enumerate(range(3, 6)):
        acct[f"up{j}.cnn"] = _conv(w(i), w(i + 1), 3, n(i + 1))
        acct[f"up{j}.trans"] = _linear(w(i), 2 * w(i), n(i))

    for j, i in enumerate(range(4, 7)):
        acct[f"skip{j}.cnn"] = _conv(2 * w(i), w(i), 1, n(i))
        acct[f"skip{j}.trans"] = _linear(2 * w(i), w(i), n(i))
        acct[f"fuse{j}.cnn"] = _conv(2 * w(i), w(i), 1, n(i))
        acct[f"fuse{j}.trans"] = _conv(2 * w(i), w(i), 1, n(i))

    head = _conv(d, cfg.num_classes, 1, n(6))
    acct["heads"] = _sum(head, head, _conv(2 * d, cfg.num_classes, 1, n(6)))
    acct["total"] = _sum(*acct.values())
    return acct


def count_params(cfg: TecNetConfig, c_img: int = 1) -> dict:
    """Analytic per-module parameter counts; must match enumeration exactly."""
    return {key: params for key, (params, _) in _accounting(cfg, c_img).items()}


def count_flops(cfg: TecNetConfig, input_size: int | None = None, c_img: int = 1) -> dict:
    """Per-module multiply-accumulate counts for one forward pass.

    `input_size` (default: the config's) must be a size the model can run;
    any other raises ConfigurationError.
    """
    if input_size is not None:
        cfg = replace(cfg, input_size=input_size)
    return {key: macs for key, (_, macs) in _accounting(cfg, c_img).items()}
