"""Transformer-branch building blocks: LPM and the attention/MLP recurrence.

Feature maps are channels-last [B, h, w, C], so the grid travels in the
shape: norms, linears, window attention and the LPM ghost convolution take
the map as it is.
"""

from __future__ import annotations

from . import engine as E
from .engine import Tensor
from .attention import ACAM, WindowAttention
from .nn import DepthwiseConv2d, LayerNorm, Linear, Module


class LPM(Module):
    """Ghost-style perceptron: half dense features, half depthwise-derived.

    primary: linear d -> 2d, GELU; ghost: depthwise 3x3 over the grid of the
    primary features, GELU; output: linear on the 4d concat back to d.
    Cheaper than the plain 4x MLP for every width used here.
    """

    def __init__(self, d: int, rng):
        self.primary = Linear(d, 2 * d, rng=rng)
        self.ghost = DepthwiseConv2d(2 * d, rng=rng)
        self.out = Linear(4 * d, d, rng=rng, zero=True)

    def forward(self, x: Tensor) -> Tensor:
        p = E.gelu(self.primary(x))                      # [B, h, w, 2d]
        return self.out(E.concat([p, E.gelu(self.ghost(p))], axis=3))


class Mlp(Module):
    """Plain 4x expansion MLP (the ablation stand-in for LPM)."""

    def __init__(self, d: int, rng):
        self.expand = Linear(d, 4 * d, rng=rng)
        self.out = Linear(4 * d, d, rng=rng, zero=True)

    def forward(self, x: Tensor) -> Tensor:
        return self.out(E.gelu(self.expand(x)))


class TransformerBlock(Module):
    """Pre-norm residual block: attention then perceptron.

        t_hat = attn(LN(t)) + t
        t_out = mlp(LN(t_hat)) + t_hat
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool,
                 use_acam: bool = True, use_lpm: bool = True,
                 shared_kv: bool = False, *, rng):
        self.norm_attn = LayerNorm(channels)
        if use_acam:
            self.attn = ACAM(channels, window, heads, shifted, shared_kv=shared_kv, rng=rng)
        else:
            self.attn = WindowAttention(channels, window, heads, shifted, rng=rng)
        self.norm_mlp = LayerNorm(channels)
        self.mlp = LPM(channels, rng=rng) if use_lpm else Mlp(channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        t_hat = self.attn(self.norm_attn(x)) + x
        return self.mlp(self.norm_mlp(t_hat)) + t_hat
