"""Dynamic deformable convolution: degeneracy, gating, offsets, gradients."""

import numpy as np
import pytest

from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.ddconv import DDConv
from tecnet.errors import ConfigurationError
from tecnet.gradcheck import check_gradients, max_rel_err

# finite differences and exact oracles: every tensor here is float64
pytestmark = pytest.mark.usefixtures("float64")
RNG = np.random.default_rng(77)


def test_zero_offsets_single_kernel_equals_conv2d():
    """With the offset head at zero and one candidate kernel, the layer is
    exactly a same-padded convolution."""
    layer = DDConv(4, 6, k=3, n_kernels=1, rng=np.random.default_rng(1))
    x = Tensor(RNG.standard_normal((1, 4, 10, 10)))
    got = layer(x).data
    want = E.conv2d(x, Tensor(layer.kernels.data[0]), layer.bias).data
    assert np.max(np.abs(got - want)) < 1e-9
    # bit-level: the sampled taps are the plain taps, so it should be exact
    assert np.max(np.abs(got - want)) == 0.0


def test_zero_offsets_stride2_equals_strided_conv2d():
    layer = DDConv(3, 5, k=3, n_kernels=1, stride=2, rng=np.random.default_rng(2))
    x = Tensor(RNG.standard_normal((1, 3, 8, 8)))
    got = layer(x).data
    want = E.conv2d(x, Tensor(layer.kernels.data[0]), layer.bias, stride=2).data
    assert got.shape == want.shape == (1, 5, 4, 4)
    assert np.max(np.abs(got - want)) == 0.0


def test_gate_starts_uniform_and_sums_to_one():
    layer = DDConv(4, 4, n_kernels=5, rng=np.random.default_rng(3))
    x = Tensor(RNG.standard_normal((2, 4, 6, 6)))
    alpha = layer.kernel_gate(x).data
    np.testing.assert_allclose(alpha, np.full((2, 5), 0.2), atol=1e-15)
    # after perturbing the gate weights the mix changes but still normalizes,
    # image by image
    layer.gate.weight.data[:] = RNG.standard_normal(layer.gate.weight.shape)
    alpha = layer.kernel_gate(x).data
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    assert alpha.std(axis=1).min() > 0
    assert not np.allclose(alpha[0], alpha[1])


def test_blended_kernel_matches_manual_mix():
    layer = DDConv(2, 3, n_kernels=4, rng=np.random.default_rng(4))
    layer.gate.weight.data[:] = RNG.standard_normal(layer.gate.weight.shape)
    x = Tensor(RNG.standard_normal((3, 2, 6, 6)))
    alpha = layer.kernel_gate(x)
    blended = layer.blended_kernel(alpha).data
    want = np.einsum("bn,noikl->boikl", alpha.data, layer.kernels.data)
    np.testing.assert_allclose(blended, want, atol=1e-14)


def test_offsets_change_output():
    layer = DDConv(2, 2, n_kernels=2, rng=np.random.default_rng(5))
    x = Tensor(RNG.standard_normal((1, 2, 8, 8)))
    base = layer(x).data
    layer.offset_head.bias.data[:] = RNG.uniform(0.2, 0.5, layer.offset_head.bias.size)
    moved = layer(x).data
    assert np.max(np.abs(base - moved)) > 1e-6


def test_offset_field_shape_matches_taps():
    k = 3
    layer = DDConv(2, 2, k=k, n_kernels=2, rng=np.random.default_rng(6))
    x = Tensor(RNG.standard_normal((3, 2, 8, 8)))
    off = layer.offset_head(x).data
    assert off.shape == (3, 2 * k * k, 8, 8)


def test_gradients_through_everything():
    """FD over all layer parameters and the input, away from lattice kinks."""
    layer = DDConv(2, 3, n_kernels=2, rng=np.random.default_rng(7))
    # push sampling positions off integers: bilinear interpolation is not
    # differentiable exactly on the lattice, where FD straddles the kink
    layer.offset_head.bias.data[:] = RNG.uniform(0.2, 0.45, layer.offset_head.bias.size)
    x = Tensor(RNG.standard_normal((2, 2, 6, 6)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 3, 6, 6)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=6, rng=np.random.default_rng(0))
    assert max_rel_err(rows) < 1e-4


def test_gradients_stride2():
    layer = DDConv(2, 2, n_kernels=2, stride=2, rng=np.random.default_rng(8))
    layer.offset_head.bias.data[:] = RNG.uniform(0.25, 0.45, layer.offset_head.bias.size)
    x = Tensor(RNG.standard_normal((2, 2, 8, 8)), requires_grad=True)
    w = Tensor(RNG.standard_normal((2, 2, 4, 4)))
    params = list(layer.named_parameters()) + [("x", x)]
    rows = check_gradients(lambda: (layer(x) * w).sum(), params,
                           max_coords=5, rng=np.random.default_rng(1))
    assert max_rel_err(rows) < 1e-4


def test_parameters_update_under_training():
    layer = DDConv(2, 2, n_kernels=3, rng=np.random.default_rng(9))
    x = Tensor(RNG.standard_normal((1, 2, 6, 6)))
    before = layer.kernels.data.copy()
    with Tape():
        loss = (layer(x) * layer(x)).sum()
    backward(loss)
    assert layer.kernels.grad is not None
    assert np.any(layer.kernels.grad != 0)
    assert np.array_equal(layer.kernels.data, before)  # backward only


def test_batch_equals_images_one_at_a_time():
    """Each image of a batch gets its own gate, offsets and blended kernel:
    a batch of three gives what each image gives alone."""
    layer = DDConv(3, 4, n_kernels=3, stride=2, rng=np.random.default_rng(10))
    layer.gate.weight.data[:] = RNG.standard_normal(layer.gate.weight.shape)
    layer.offset_head.weight.data[:] = 0.1 * RNG.standard_normal(layer.offset_head.weight.shape)
    x = Tensor(RNG.standard_normal((3, 3, 7, 9)))
    batch = layer(x).data
    for i in range(3):
        np.testing.assert_allclose(batch[i:i + 1], layer(Tensor(x.data[i:i + 1])).data,
                                   rtol=0, atol=1e-12)


def test_rejects_even_kernel():
    with pytest.raises(ConfigurationError):
        DDConv(2, 2, k=4, rng=np.random.default_rng(0))


def test_rejects_bad_kernel_count():
    with pytest.raises(ConfigurationError):
        DDConv(2, 2, n_kernels=0, rng=np.random.default_rng(0))
