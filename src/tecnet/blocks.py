"""Transformer-branch building blocks: LPM and the attention/MLP recurrence.

Tokens are [N, C] rows in row-major grid order; each block needs the (h, w)
grid so window attention and the LPM ghost convolution can see the layout.
"""

from __future__ import annotations

from . import engine as E
from .engine import Tensor
from .errors import UsageError
from .attention import ACAM, WindowAttention
from .nn import DepthwiseConv2d, LayerNorm, Linear, Module


def tokens_to_grid(tokens: Tensor, h: int, w: int) -> Tensor:
    """[N, C] -> [C, h, w]; N must equal h*w."""
    n, c = tokens.shape
    if n != h * w:
        raise UsageError(f"{n} tokens do not fill a {h}x{w} grid")
    return tokens.reshape(h, w, c).permute(2, 0, 1)


def grid_to_tokens(x: Tensor) -> Tensor:
    """[C, h, w] -> [h*w, C]."""
    c, h, w = x.shape
    return x.permute(1, 2, 0).reshape(h * w, c)


class LPM(Module):
    """Ghost-style perceptron: half dense features, half depthwise-derived.

    primary: linear d -> 2d, GELU; ghost: depthwise 3x3 over the token grid
    of the primary features, GELU; output: linear on the 4d concat back to d.
    Cheaper than the plain 4x MLP for every width used here.
    """

    def __init__(self, d: int, rng=None):
        self.primary = Linear(d, 2 * d, rng=rng)
        self.ghost = DepthwiseConv2d(2 * d, 3, rng=rng)
        self.out = Linear(4 * d, d, rng=rng, zero=True)

    def forward(self, tokens: Tensor, grid: tuple[int, int]) -> Tensor:
        h, w = grid
        n, d = tokens.shape
        if n != h * w:
            raise UsageError(f"{n} tokens do not fill a {h}x{w} grid")
        p = E.gelu(self.primary(tokens))                 # [N, 2d]
        g = tokens_to_grid(p, h, w)                      # [2d, h, w]
        g = E.gelu(self.ghost(g))
        g = grid_to_tokens(g)                            # [N, 2d]
        return self.out(E.concat([p, g], axis=1))


class Mlp(Module):
    """Plain 4x expansion MLP (the ablation stand-in for LPM)."""

    def __init__(self, d: int, rng=None):
        self.expand = Linear(d, 4 * d, rng=rng)
        self.out = Linear(4 * d, d, rng=rng, zero=True)

    def forward(self, tokens: Tensor, grid: tuple[int, int]) -> Tensor:
        return self.out(E.gelu(self.expand(tokens)))


class TransformerBlock(Module):
    """Pre-norm residual block: attention then perceptron.

        t_hat = attn(LN(t)) + t
        t_out = mlp(LN(t_hat)) + t_hat
    """

    def __init__(self, channels: int, window: int, heads: int, shifted: bool,
                 use_acam: bool = True, use_lpm: bool = True,
                 shared_kv: bool = False, rng=None):
        self.norm_attn = LayerNorm(channels)
        if use_acam:
            self.attn = ACAM(channels, window, heads, shifted, shared_kv=shared_kv, rng=rng)
        else:
            self.attn = WindowAttention(channels, window, heads, shifted, rng=rng)
        self.norm_mlp = LayerNorm(channels)
        self.mlp = LPM(channels, rng=rng) if use_lpm else Mlp(channels, rng=rng)

    def forward(self, tokens: Tensor, grid: tuple[int, int]) -> Tensor:
        h, w = grid
        a = tokens_to_grid(self.norm_attn(tokens), h, w)
        a = self.attn(a)
        t_hat = grid_to_tokens(a) + tokens
        return self.mlp(self.norm_mlp(t_hat), grid) + t_hat
