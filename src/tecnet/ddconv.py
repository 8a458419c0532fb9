"""Dynamic deformable convolution.

Two dynamic mechanisms on top of a plain k x k convolution:

* deformable sampling: a zero-initialised conv head predicts a pair of
  fractional offsets (dy, dx) for every kernel tap at every output position,
  and the input is read by bilinear interpolation at the displaced tap
  locations (zero outside the canvas);
* dynamic kernels: n candidate weight tensors are blended per image by a
  softmax gate driven by globally pooled input statistics.

Because both the offset head and the gate start at zero (uniform blend,
undisplaced taps), a freshly built layer behaves exactly like the blended
static convolution, which keeps early training stable.
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ConfigurationError
from .nn import Conv2d, Linear, Module, parameter


class DDConv(Module):
    """Dynamic deformable convolution over [C_in, H, W] maps.

    Offsets are predicted by a stride-matched conv with 2*k*k output
    channels, laid out tap-major: channels (2t, 2t+1) hold (dy, dx) for tap
    t in row-major kernel order.  Tap positions are centred, so an all-zero
    offset map reproduces conv2d with same padding.
    """

    def __init__(self, c_in: int, c_out: int, k: int = 3, n_kernels: int = 4,
                 stride: int = 1, rng=None):
        if k % 2 == 0:
            raise ConfigurationError(f"kernel side must be odd, got {k}")
        if n_kernels < 1:
            raise ConfigurationError(f"need at least one candidate kernel, got {n_kernels}")
        self.c_in = c_in
        self.c_out = c_out
        self.k = k
        self.n_kernels = n_kernels
        self.stride = stride
        # n candidate kernels, blended per image.
        self.kernels = parameter((n_kernels, c_out, c_in, k, k), rng=rng, fan_in=c_in * k * k)
        self.bias = parameter((c_out,), zero=True)
        # gate: GAP -> linear -> softmax over the n candidates; zero init so
        # the blend starts uniform.
        self.gate = Linear(c_in, n_kernels, rng=rng, zero=True)
        # offset head: zero init so taps start on the regular grid.
        self.offset_head = Conv2d(c_in, 2 * k * k, k, rng=rng, stride=stride,
                                  padding=k // 2, zero=True)
        self._grids: dict = {}

    # -- pieces exposed for tests ----------------------------------------

    def predict_offsets(self, x: Tensor) -> Tensor:
        """[2*k*k, H', W'] tap displacement field for input [C, H, W]."""
        return self.offset_head(x)

    def kernel_gate(self, x: Tensor) -> Tensor:
        """[n] softmax blend weights for this image."""
        pooled = E.global_avg_pool(x)
        return E.softmax(self.gate(pooled), axis=-1)

    def blended_kernel(self, alpha: Tensor) -> Tensor:
        """[C_out, C_in, k, k] mixture of the candidate kernels."""
        n = self.n_kernels
        flat = self.kernels.reshape(n, -1)
        mixed = alpha.reshape(1, n) @ flat
        return mixed.reshape(self.c_out, self.c_in, self.k, self.k)

    def _tap_grid(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Undisplaced sampling positions in input coordinates, cached per
        extent and compute dtype.

        Returns base_y [k*k, H', 1] and base_x [k*k, 1, W'], which broadcast
        to the [k*k, H', W'] tap grid.
        """
        key = (h, w, E.compute_dtype())
        grid = self._grids.get(key)
        if grid is None:
            k, s = self.k, self.stride
            # same-padding output extents, matching the offset head's conv
            oy = np.arange((h - 1) // s + 1) * s
            ox = np.arange((w - 1) // s + 1) * s
            dy, dx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
            centre = (k - 1) / 2.0
            grid = self._grids[key] = (
                E.constant(oy[None, :, None] + (dy.reshape(-1) - centre)[:, None, None]),
                E.constant(ox[None, None, :] + (dx.reshape(-1) - centre)[:, None, None]))
        return grid

    def forward(self, x: Tensor) -> Tensor:
        c, h, w = x.shape
        if c != self.c_in:
            raise ConfigurationError(f"expected {self.c_in} input channels, got {c}")
        k = self.k
        offsets = self.predict_offsets(x)                    # [2k^2, H', W']
        ho, wo = offsets.shape[1], offsets.shape[2]
        off = offsets.reshape(k * k, 2, ho, wo)
        base_y, base_x = self._tap_grid(h, w)
        ys = off[:, 0] + base_y                              # [k^2, H', W']
        xs = off[:, 1] + base_x
        sampled = E.bilinear_gather(x, ys, xs)               # [C_in, k^2, H', W']

        alpha = self.kernel_gate(x)
        kern = self.blended_kernel(alpha)                    # [C_out, C_in, k, k]
        w2 = kern.reshape(self.c_out, self.c_in * k * k)
        cols = sampled.reshape(self.c_in * k * k, ho * wo)
        y = (w2 @ cols).reshape(self.c_out, ho, wo)
        return y + self.bias.reshape(-1, 1, 1)
