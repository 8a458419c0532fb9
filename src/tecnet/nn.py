"""Small layer library on top of the engine.

Modules hold parameters as Tensor attributes with requires_grad set; child
modules and lists of modules are discovered by walking __dict__ in insertion
order, which keeps parameter enumeration deterministic for checkpointing.
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ConfigurationError


def parameter(shape, rng: np.random.Generator | None = None,
              fan_in: int | None = None, zero: bool = False,
              scale: float | None = None) -> Tensor:
    """Create a leaf tensor.

    Default init is uniform on (-1/sqrt(fan_in), 1/sqrt(fan_in)); pass
    zero=True for zero init (used where a layer should start as identity or
    contribute nothing at step 0), or scale for a centred normal.
    """
    shape = tuple(shape)
    if zero:
        data = np.zeros(shape)
    elif scale is not None:
        data = rng.normal(0.0, scale, size=shape)
    else:
        if fan_in is None:
            fan_in = shape[0] if shape else 1
        bound = 1.0 / np.sqrt(max(1, fan_in))
        data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


class Module:
    """Base class providing recursive parameter traversal."""

    def named_parameters(self, prefix: str = ""):
        for key, value in self.__dict__.items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=name + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def load_state(self, arrays: dict) -> None:
        """Copy arrays (name -> ndarray) into matching parameters."""
        params = dict(self.named_parameters())
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ConfigurationError(
                f"state mismatch: missing {sorted(missing)[:4]}..., extra {sorted(extra)[:4]}...")
        for name, p in params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != p.shape:
                raise ConfigurationError(
                    f"parameter {name} has shape {p.shape}, checkpoint gives {arr.shape}")
            p.data[...] = arr

    def state_arrays(self):
        """(name, ndarray) pairs in enumeration order."""
        return [(name, p.data) for name, p in self.named_parameters()]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """y = x @ W + b with W of shape [d_in, d_out]."""

    def __init__(self, d_in: int, d_out: int, rng=None, bias: bool = True,
                 zero: bool = False):
        self.weight = parameter((d_in, d_out), rng=rng, fan_in=d_in, zero=zero)
        self.bias = parameter((d_out,), zero=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        flat = x.ndim == 1
        if flat:
            x = x.reshape(1, -1)
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y.reshape(-1) if flat else y


class Conv2d(Module):
    """Square odd-kernel 2-D convolution over [C, H, W]."""

    def __init__(self, c_in: int, c_out: int, k: int, rng=None, stride: int = 1,
                 padding: int | None = None, bias: bool = True, zero: bool = False):
        if k % 2 == 0:
            raise ConfigurationError(f"kernel side must be odd, got {k}")
        self.weight = parameter((c_out, c_in, k, k), rng=rng, fan_in=c_in * k * k, zero=zero)
        self.bias = parameter((c_out,), zero=True) if bias else None
        self.stride = stride
        self.padding = k // 2 if padding is None else padding

    def forward(self, x: Tensor) -> Tensor:
        return E.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """Per-channel 3x3 (or other odd k) convolution, same padding."""

    def __init__(self, channels: int, k: int = 3, rng=None, bias: bool = True):
        self.weight = parameter((channels, k, k), rng=rng, fan_in=k * k)
        self.bias = parameter((channels,), zero=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return E.depthwise_conv2d(x, self.weight, self.bias)


class LayerNorm(Module):
    """Normalize the last axis; learnable gain and bias."""

    def __init__(self, d: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return E.layernorm(x, self.gain, self.bias, eps=self.eps)


class ChannelNorm(Module):
    """LayerNorm over the channel axis of [C, H, W] feature maps."""

    def __init__(self, channels: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        t = x.permute(1, 2, 0)                      # [H, W, C]
        t = E.layernorm(t, self.gain, self.bias, eps=self.eps)
        return t.permute(2, 0, 1)
