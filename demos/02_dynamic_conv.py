"""Dynamic deformable convolution, taken apart.

DDConv combines two ideas on top of a standard 3x3 convolution:

 * dynamic kernels: n candidate kernels blended per image through a
   softmax gate fed by global average pooling, and
 * deformable sampling: a small conv head predicts per-pixel (dy, dx)
   offsets for each of the 9 taps, sampled bilinearly.

Both heads are zero-initialized, so a fresh layer IS a plain convolution:
uniform blend, taps on the regular grid.  This demo shows that degeneracy
and then perturbs each head separately to show what it contributes.
"""

import numpy as np

from tecnet import Tensor
from tecnet import engine as E
from tecnet.ddconv import DDConv


def main():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 4, 12, 12)))     # a batch of two [C, H, W] maps

    layer = DDConv(4, 6, k=3, n_kernels=1, rng=rng)
    plain = E.conv2d(x, Tensor(layer.kernels.data[0]), layer.bias)
    print("fresh DDConv == conv2d:",
          float(np.max(np.abs(layer(x).data - plain.data))), "max abs diff")

    # With several candidates the gate starts uniform...
    layer = DDConv(4, 6, k=3, n_kernels=3, rng=rng)
    print("gate at init, one row per image:", layer.kernel_gate(x).data.round(4))

    # ...and moves once the gate weights are nonzero, image by image.
    layer.gate.weight.data[:] = 0.5 * rng.standard_normal(layer.gate.weight.shape)
    print("gate after perturbation:", layer.kernel_gate(x).data.round(4))

    # Offsets shift where the taps read from.  A constant +0.5 px shift in x
    # changes the output everywhere; zero offsets do not.
    before = layer(x).data.copy()
    layer.offset_head.bias.data[1::2] = 0.5
    after = layer(x).data
    print("mean |output change| from half-pixel offsets:",
          float(np.mean(np.abs(after - before))).__round__(4))

    # The offset field is a learned function of the input.
    field = layer.offset_head(x)
    print("offset field shape (B, 2*k*k maps, H, W):", field.shape)


if __name__ == "__main__":
    main()
