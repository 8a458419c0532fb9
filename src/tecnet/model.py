"""The dual-branch segmentation network.

Seven stages shared by two parallel branches: a CNN branch built from
dynamic deformable convolutions and a transformer branch built from window
attention block stacks.  Stages 0-2 encode (halving the grid, doubling the
width), stage 3 is the bottleneck, stages 4-6 decode back up with skip
connections inside each branch and cross-branch fusion joining the two at
every decoder stage.  Three 1x1 heads emit logits: one per branch and one
from the concatenated final features.

Everything runs on a batch: images are [B, C, H, W], CNN-branch maps
[B, C, h, w] and transformer-branch maps channels-last [B, h, w, C].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import engine as E
from .engine import Tensor, as_tensor
from .errors import ConfigurationError, UsageError
from .attention import branch_dims, cost_acam, cost_swmsa, padded, window_tokens
from .blocks import TransformerBlock
from .ddconv import DDConv
from .nn import ChannelNorm, Conv2d, Linear, Module

N_STAGES = 7
PATCH = 4           # both branches embed the image as PATCH x PATCH patches
N_KERNELS = 4       # every DDConv blends N_KERNELS candidate kernels
MAX_PARAMS = 1 << 30    # 4 GiB of float32; the base preset has 144 M


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# config dataclass field annotation -> value check; the annotations are
# strings because of `from __future__ import annotations`
_TYPE_CHECKS = {"str": lambda v: isinstance(v, str), "int": _is_int,
                "int | None": lambda v: v is None or _is_int(v),
                "float": lambda v: isinstance(v, float) or _is_int(v),
                "bool": lambda v: isinstance(v, bool),
                "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))}


def check_types(config) -> None:
    """Raise ConfigurationError naming the first field of a config dataclass
    whose value does not have the field's annotated type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _TYPE_CHECKS[f.type](value):
            raise ConfigurationError(
                f"config field {f.name} must be of type {f.type}, got {value!r}")


def read_config(cls, d, optional=(), **given):
    """Build config dataclass cls from a JSON object d that names each field
    except those in `given`, which the caller supplies; fields in `optional`
    may be left out and take their defaults.  cls.RETIRED maps each field
    that left cls to (the one value an older file may still give it, why):
    that value, of the field's old type, reads as absent; any other fails."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"config must be an object, got {type(d).__name__}")
    for key, (kept, why) in cls.RETIRED.items():
        if key in d and not (_TYPE_CHECKS[type(kept).__name__](d[key]) and d[key] == kept):
            raise ConfigurationError(f"config field {key} is retired ({why}); "
                                     f"it may only be {kept!r}, got {d[key]!r}")
    d = {k: v for k, v in d.items() if k not in cls.RETIRED}
    names = {f.name for f in fields(cls)} - set(given)
    missing = sorted(names - set(optional) - set(d))
    if missing:
        raise ConfigurationError(f"config missing required keys: {missing}")
    unknown = sorted(set(d) - names)
    if unknown:
        raise ConfigurationError(f"config has unknown keys: {unknown}")
    return cls(**d, **given)


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class TecNetConfig:
    name: str
    layer_numbers: tuple[int, ...]
    heads: tuple[int, ...]
    base_width: int
    window: int
    input_size: int
    use_ddconv: bool = True
    use_acam: bool = True
    use_lpm: bool = True
    shared_kv: bool = False

    RETIRED = {"num_classes": (1, "the model segments one class"),
               "patch": (PATCH, "the model embeds 4x4 patches"),
               "n_kernels": (N_KERNELS, "every DDConv blends 4 kernels")}

    def __post_init__(self):
        check_types(self)
        object.__setattr__(self, "layer_numbers", tuple(int(x) for x in self.layer_numbers))
        object.__setattr__(self, "heads", tuple(int(x) for x in self.heads))
        for key in ("window", "base_width"):
            if getattr(self, key) < 1:
                raise ConfigurationError(
                    f"config field {key} must be positive, got {getattr(self, key)}")
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
        if self.input_size < 1 or self.input_size % (8 * PATCH):
            raise ConfigurationError(         # a stage-0 grid that halves three times
                f"config field input_size must be a positive multiple of {8 * PATCH}, "
                f"got {self.input_size}")
        for i in range(N_STAGES):
            c = self.stage_width(i)
            if self.use_acam and c % (8 * self.heads[i]):
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by 8*heads={8 * self.heads[i]}")
            if not self.use_acam and c % self.heads[i]:
                raise ConfigurationError(
                    f"stage {i} width {c} not divisible by heads={self.heads[i]}")
        total = count_params(self)["total"]      # refuse a model too large to build
        if total > MAX_PARAMS:
            raise ConfigurationError(
                f"config builds {total:,} parameters, more than the {MAX_PARAMS:,} allowed")

    def stage_width(self, i: int) -> int:
        return self.base_width * 2 ** min(i, N_STAGES - 1 - i)

    def stage_grid(self, i: int) -> int:
        return self.input_size // PATCH // 2 ** min(i, N_STAGES - 1 - i)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TecNetConfig":
        return read_config(cls, d, optional=("use_ddconv", "use_acam", "use_lpm", "shared_kv"))


def _preset(**fields_):
    """A factory of TecNetConfig(**fields_) whose keywords override any field."""
    return lambda **overrides: TecNetConfig(**{**fields_, **overrides})


nano_config = _preset(name="nano", layer_numbers=(1, 1, 2, 1, 2, 1, 1),
                      heads=(1, 2, 4, 8, 4, 2, 1), base_width=16, window=4, input_size=64)
tiny_config = _preset(name="tiny", layer_numbers=(2, 2, 6, 2, 6, 2, 2),
                      heads=(3, 6, 12, 24, 12, 6, 3), base_width=96, window=7, input_size=224)
base_config = _preset(name="base", layer_numbers=(2, 2, 18, 2, 18, 2, 2),
                      heads=(4, 8, 16, 32, 16, 8, 4), base_width=96, window=7, input_size=224)

PRESETS = {"nano": nano_config, "tiny": tiny_config, "base": base_config}


# ---------------------------------------------------------------- submodules

class PatchEmbed(Module):
    """Non-overlapping PATCH x PATCH projection of [B, 1, H, W] images to [B, g, g, D] maps."""

    def __init__(self, d: int, rng):
        self.proj = Linear(PATCH * PATCH, d, rng=rng)

    def forward(self, image: Tensor) -> Tensor:
        b, c, h, w = image.shape
        p = PATCH
        if c != 1 or h % p or w % p:
            raise ConfigurationError(
                f"patch embed needs [B, 1, k*{p}, k*{p}] input, got {image.shape}")
        t = E.gather_tokens(image.reshape(b, h, w, 1), *window_tokens(h, w, p, 0))
        return self.proj(t.reshape(b, h // p, w // p, p * p))


class CnnStem(Module):
    """Two stride-2 3x3 convs with a GELU between: [B, 1, H, W] -> [B, D, H/4, W/4]."""

    def __init__(self, d: int, rng):
        self.convs = [Conv2d(1, d // 2, 3, rng=rng, stride=2),
                      Conv2d(d // 2, d, 3, rng=rng, stride=2)]

    def forward(self, image: Tensor) -> Tensor:
        return self.convs[1](E.gelu(self.convs[0](image)))


def cnn_conv(c_in: int, c_out: int, use_ddconv: bool, stride: int = 1, *, rng) -> Module:
    """The CNN branch's 3x3 conv: a DDConv of N_KERNELS kernels, or a plain Conv2d."""
    if use_ddconv:
        return DDConv(c_in, c_out, 3, n_kernels=N_KERNELS, stride=stride, rng=rng)
    return Conv2d(c_in, c_out, 3, rng=rng, stride=stride)


class CnnStage(Module):
    """Two conv units: `cnn_conv` -> channel norm -> GELU."""

    UNITS = 2

    def __init__(self, channels: int, use_ddconv: bool, rng):
        self.convs = [cnn_conv(channels, channels, use_ddconv, rng=rng) for _ in range(self.UNITS)]
        self.norms = [ChannelNorm(channels) for _ in range(self.UNITS)]

    def forward(self, x: Tensor) -> Tensor:
        for conv, norm in zip(self.convs, self.norms):
            x = E.gelu(norm(conv(x)))
        return x


class TransStage(Module):
    """layer_numbers[i] blocks alternating plain/shifted windows."""

    def __init__(self, channels: int, depth: int, window: int, heads: int,
                 use_acam: bool, use_lpm: bool, shared_kv: bool, rng):
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
    """Transformer-branch downsample: each 2x2 group of [B, h, w, C] -> one 2C vector."""

    def __init__(self, channels: int, rng):
        self.reduce = Linear(4 * channels, 2 * channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ConfigurationError(f"patch merge needs even extents, got {h}x{w}")
        t = E.gather_tokens(x, *window_tokens(h, w, 2, 0))
        return self.reduce(t.reshape(b, h // 2, w // 2, 4 * c))


class PatchExpand(Module):
    """Transformer-branch upsample: [B, h, w, C] -> [B, 2h, 2w, C/2], child (a, b) of (i, j) at (2i+a, 2j+b)."""

    def __init__(self, channels: int, rng):
        if channels % 2:
            raise ConfigurationError(f"patch expand needs even width, got {channels}")
        self.grow = Linear(channels, 2 * channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, h, w, c = x.shape
        slots, homes = window_tokens(2 * h, 2 * w, 2, 0)
        t = E.gather_tokens(self.grow(x).reshape(b, -1, c // 2), homes, slots)
        return t.reshape(b, 2 * h, 2 * w, c // 2)


# ---------------------------------------------------------------- the model

class TecNet(Module):
    def __init__(self, cfg: TecNetConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.base_width
        w = cfg.stage_width

        self.patch_embed = PatchEmbed(d, rng=rng)
        self.cnn_stem = CnnStem(d, rng=rng)

        self.cnn_stages = [CnnStage(w(i), cfg.use_ddconv, rng=rng) for i in range(N_STAGES)]
        self.trans_stages = [
            TransStage(w(i), cfg.layer_numbers[i], cfg.window, cfg.heads[i],
                       cfg.use_acam, cfg.use_lpm, cfg.shared_kv, rng=rng)
            for i in range(N_STAGES)
        ]

        # encoder transitions after stages 0,1,2
        self.cnn_down = [cnn_conv(w(i), w(i + 1), cfg.use_ddconv, stride=2, rng=rng)
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

        self.head_cnn = Conv2d(d, 1, 1, rng=rng)
        self.head_trans = Conv2d(d, 1, 1, rng=rng)
        self.head_tec = Conv2d(2 * d, 1, 1, rng=rng)

    # -- forward ----------------------------------------------------------

    def forward(self, images) -> dict:
        """Logits [B, 1, H, W] of the three heads for images [B, 1, H, W].

        Under `nn.capture()`, stage i's maps are the outputs of
        `cnn_stages[i]` ([B, C, h, w]) and `trans_stages[i]` ([B, h, w, C]).
        """
        cfg = self.cfg
        images = as_tensor(images)
        want = (1, cfg.input_size, cfg.input_size)
        if images.ndim != 4 or images.shape[1:] != want:
            raise UsageError(f"expected input [B, {', '.join(map(str, want))}], got {images.shape}")

        c = self.cnn_stem(images)                      # [B, D, g0, g0]
        t = self.patch_embed(images)                   # [B, g0, g0, D]

        skips_c, skips_t = [], []
        for i in range(3):
            c = self.cnn_stages[i](c)
            t = self.trans_stages[i](t)
            skips_c.append(c)
            skips_t.append(t)
            c = self.cnn_down[i](c)
            t = self.trans_down[i](t)

        c = self.cnn_stages[3](c)
        t = self.trans_stages[3](t)

        for j, i in enumerate(range(4, 7)):
            c = self.cnn_up[j](E.upsample_nearest(c, 2))
            t = self.trans_up[j](t)
            # skip connections from the mirrored encoder stage
            c = self.cnn_skip[j](E.concat([c, skips_c[6 - i]], axis=1))
            t = self.trans_skip[j](E.concat([t, skips_t[6 - i]], axis=3))
            # cross-branch fusion: each branch sees the other's features
            tg = t.permute(0, 3, 1, 2)
            c_fused = self.cnn_fuse[j](E.concat([c, tg], axis=1))
            t_fused = self.trans_fuse[j](E.concat([tg, c], axis=1))
            c = self.cnn_stages[i](c_fused)
            t = self.trans_stages[i](t_fused.permute(0, 2, 3, 1))

        tg = t.permute(0, 3, 1, 2)
        y_cnn = E.upsample_bilinear(self.head_cnn(c), PATCH)
        y_trans = E.upsample_bilinear(self.head_trans(tg), PATCH)
        y_tec = E.upsample_bilinear(self.head_tec(E.concat([c, tg], axis=1)), PATCH)
        return {"y_cnn": y_cnn, "y_trans": y_trans, "y_tec": y_tec}


# ---------------------------------------------------------------- accounting

def _linear(d_in, d_out, n=1):
    """(params, MACs) of a biased Linear applied at n positions."""
    return d_in * d_out + d_out, n * d_in * d_out


def _conv(c_in, c_out, k, n=1):
    """(params, MACs) of a biased k x k Conv2d with n output positions."""
    return c_out * c_in * k * k + c_out, n * c_in * c_out * k * k


def _sum(*costs, times=1):
    """Element-wise sum of (params, MACs, ...) tuples, scaled by `times`."""
    return tuple(times * sum(part) for part in zip(*costs))


def _ddconv(c_in, c_out, n):
    """(params, MACs) of a 3x3 DDConv with n output positions: candidate
    kernels and bias, their per-image blend, the bilinear taps (4 multiplies
    each), the main product, the blend gate and the offset head."""
    taps = c_in * 9
    own = (N_KERNELS * c_out * taps + c_out,
           N_KERNELS * c_out * taps + 4 * taps * n + taps * c_out * n)
    return _sum(own, _linear(c_in, N_KERNELS), _conv(c_in, 2 * 9, 3, n))


MAC_REPORT_COLUMNS = ("module", "branch", "params", "formula_macs", "actual_macs",
                      "prob_entries")


def attention_rows(cfg: TecNetConfig, stage: int) -> list[dict]:
    """Cost rows of one attention layer of `stage`: one per branch, then their total.

    The layer is the ACAM (in the config's `shared_kv` mode) or, with
    `use_acam` off, the WindowAttention the config builds.  Each row holds
    the `MAC_REPORT_COLUMNS`: `params` are the branch's parameters (the
    output projection's row carries the four fusion weights), `formula_macs`
    the closed-form budget the layer family advertises (`cost_swmsa`,
    `cost_acam`), `actual_macs` the matmul multiplies the implementation
    performs (padding included, biases and softmax excluded), and
    `prob_entries` the attention probabilities a branch forms, windows x
    heads x T^2 (padding included), which MACs do not see.
    """
    c, m, heads = cfg.stage_width(stage), cfg.window, cfg.heads[stage]
    g = padded(cfg.stage_grid(stage), m)
    nw, t, hw = (g // m) ** 2, m * m, g * g

    def lin(d_in, d_out, tokens, times=1):
        """(params, MACs, probs) of `times` Linears over `tokens` tokens per window."""
        return _sum(_linear(d_in, d_out, tokens * nw) + (0,), times=times)

    def attend(tokens, d, branch_heads, params=0):
        """(params, MACs, probs) of a branch's two products over T = tokens, d features."""
        return params, 2 * nw * tokens * tokens * d, nw * branch_heads * tokens * tokens

    table = (2 * m - 1) ** 2 * heads            # spatial relative-position bias
    if not cfg.use_acam:
        name, total = f"wmsa[C={c},M={m}]", cost_swmsa(g, g, c, m)
        rows = [("projection", 3 * hw * c * c, lin(c, c, t, 3)),
                ("attention_spatial", 2 * t * hw * c, attend(t, c, heads, table)),
                ("output_projection", hw * c * c, lin(c, c, t))]
    else:
        c8, m8, p8, heads_channel, heads_cross = branch_dims(c, m, heads, cfg.shared_kv)
        if cfg.shared_kv:                       # K/V embeddings read by every branch
            proj, out = lin(c, c8, t, 2), lin(c8, c, t, 4)
            channel = attend(c8, t, heads_channel, c8 * c8)
            cross = attend(c8 * m, m, heads_cross)
        else:                                   # Q/K/V and output maps per branch
            proj = _sum(lin(c, c8, t, 3), lin(t, m8, c, 3), lin(m, p8, c * m, 6))
            out = _sum(lin(c8, c, t), lin(m8, t, c), lin(p8, m, c * m, 2))
            channel = attend(c, m8, heads_channel, c * c)
            cross = attend(c * m, p8, heads_cross)
        name = f"acam[C={c},M={m}{',shared' if cfg.shared_kv else ''}]"
        total = cost_acam(g, g, c, m)
        per_branch = (t * hw * c) // 4
        rows = [("projection", (hw * c * c) // 4, proj),
                ("attention_spatial", per_branch, attend(t, c8, heads, table)),
                ("attention_channel", per_branch, channel),
                ("attention_cross_h", per_branch, cross),
                ("attention_cross_w", per_branch, cross),
                ("output_projection", 0, _sum(out, (4, 0, 0)))]   # + fusion weights
    rows.append(("total", total, _sum(*(cost for _, _, cost in rows))))
    return [dict(zip(MAC_REPORT_COLUMNS, (name, branch, params, formula, macs, probs)))
            for branch, formula, (params, macs, probs) in rows]


def _block(cfg: TecNetConfig, stage: int):
    """(params, MACs) of one transformer block of `stage`."""
    c, n = cfg.stage_width(stage), cfg.stage_grid(stage) ** 2
    if cfg.use_lpm:   # the ghost depthwise 3x3 costs a conv with one input channel
        mlp = _sum(_linear(c, 2 * c, n), _conv(1, 2 * c, 3, n), _linear(4 * c, c, n))
    else:
        mlp = _sum(_linear(c, 4 * c, n), _linear(4 * c, c, n))
    norms = (4 * c, 0)                          # two layernorms, gain and bias
    attn = attention_rows(cfg, stage)[-1]
    return _sum(norms, (attn["params"], attn["actual_macs"]), mlp)


def _accounting(cfg: TecNetConfig) -> dict:
    """{module key: (params, MACs)} of TecNet(cfg) for one forward pass.

    MACs count matmul/conv multiplies (attention per `attention_rows`,
    bilinear taps at 4 multiplies per sample); pointwise activations, norms
    and softmax are excluded.
    """
    d, w = cfg.base_width, cfg.stage_width

    def n(i: int) -> int:
        return cfg.stage_grid(i) ** 2

    def conv3(c_in, c_out, n_out):
        if cfg.use_ddconv:
            return _ddconv(c_in, c_out, n_out)
        return _conv(c_in, c_out, 3, n_out)

    acct = {"patch_embed": _linear(PATCH ** 2, d, n(0)),
            "cnn_stem": _sum(_conv(1, d // 2, 3, (cfg.input_size // 2) ** 2),
                             _conv(d // 2, d, 3, n(0)))}

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

    head = _conv(d, 1, 1, n(6))
    acct["heads"] = _sum(head, head, _conv(2 * d, 1, 1, n(6)))
    acct["total"] = _sum(*acct.values())
    return acct


def count_params(cfg: TecNetConfig) -> dict:
    """Analytic per-module parameter counts; must match enumeration exactly."""
    return {key: params for key, (params, _) in _accounting(cfg).items()}


def count_flops(cfg: TecNetConfig) -> dict:
    """Per-module multiply-accumulate counts for one forward pass at the
    config's input size."""
    return {key: macs for key, (_, macs) in _accounting(cfg).items()}
