"""Tensor container and tape recording semantics."""

import re

import numpy as np
import pytest

from tecnet import Tape, Tensor, backward
from tecnet import engine as E
from tecnet.errors import DimensionError, UsageError


def test_tensor_wraps_float64():
    with E.precision(np.float64):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert (Tensor([1.0]) * np.ones(1, np.float32)).data.dtype == np.float64


def test_tensor_wraps_compute_dtype():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float32 == E.compute_dtype()
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4
    with E.precision(np.float64):
        assert Tensor([1]).data.dtype == np.float64
    assert Tensor([1]).data.dtype == np.float32


def test_precision_restores_on_error_and_rejects_non_floats():
    with pytest.raises(RuntimeError):
        with E.precision(np.float64):
            raise RuntimeError("boom")
    assert E.compute_dtype() == np.float32
    for bad in (np.float16, np.int32, bool):
        with pytest.raises(UsageError):
            with E.precision(bad):
                pass
    assert E.compute_dtype() == np.float32


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(UsageError):
        Tensor([1.0, 2.0]).item()


def test_no_tape_no_graph():
    a = Tensor([1.0], requires_grad=True)
    b = a * 2.0
    assert b.node is None  # nothing recorded outside a tape


def test_untracked_inputs_not_recorded():
    with Tape():
        a = Tensor([1.0])  # requires_grad defaults off
        b = a * 2.0
    assert b.node is None


def test_backward_accumulates_into_grad():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = (a * a).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [2.0, 4.0])
    # a second run adds on top unless cleared
    with Tape():
        loss = (a * a).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [4.0, 8.0])
    a.zero_grad()
    np.testing.assert_allclose(a.grad, [0.0, 0.0])


def test_backward_works_after_tape_block_exits():
    a = Tensor(2.0, requires_grad=True)
    with Tape():
        loss = a * a * a
    backward(loss)  # outside the with-block
    np.testing.assert_allclose(a.grad, 12.0)


def test_backward_needs_scalar_loss():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = a * 3.0
    with pytest.raises(UsageError):
        backward(y)


def test_backward_needs_recorded_loss():
    a = Tensor(1.0, requires_grad=True)
    loss = a * 2.0  # no tape active
    with pytest.raises(UsageError):
        backward(loss)


def test_fanout_gradients_sum():
    a = Tensor(3.0, requires_grad=True)
    with Tape():
        loss = a * a + a * 5.0  # a used twice
    backward(loss)
    np.testing.assert_allclose(a.grad, 2 * 3.0 + 5.0)


def test_broadcast_backward_unbroadcasts():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    with Tape():
        loss = (a * b).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, np.tile(np.arange(3.0), (2, 1)))
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])  # summed over rows


def test_leaf_gradient_is_none_until_a_backward_reaches_it():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    assert a.grad is None and b.grad is None
    with Tape():
        loss = (a * a).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [2.0, 4.0])
    assert b.grad is None                    # the loss does not depend on b


def test_scalar_operand_broadcast():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = ((2.0 * a + 1.0) / 2.0 - a).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [0.0, 0.0], atol=1e-15)


def test_detach_blocks_gradient():
    a = Tensor([2.0], requires_grad=True)
    with Tape():
        loss = (a.detach() * a).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [2.0])  # only the live branch


def test_nested_tapes_are_rejected():
    with Tape():
        with pytest.raises(UsageError):
            with Tape():
                pass
    with Tape():  # the failed nest must not leave the slot taken
        pass


def test_tape_left_by_an_exception_frees_its_slot():
    a = Tensor([2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with Tape():
            a * a
            raise RuntimeError("mid-recording")
    with Tape() as tape:
        loss = (a * a).sum()
    assert loss.node is not None and loss.node.tape is tape
    backward(loss)
    np.testing.assert_allclose(a.grad, [4.0])


def test_values_is_flat_view():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = a.values
    assert v.shape == (4,)
    v[0] = 99.0  # documented as a view for in-place surgery
    assert a.data[0, 0] == 99.0


def test_getitem_slicing_records():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        loss = a[0].sum() + a[1, 2] * 10.0
    backward(loss)
    np.testing.assert_allclose(a.grad, [[1, 1, 1], [0, 0, 10]])


def test_reshape_permute_roundtrip():
    a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with Tape():
        b = a.permute(2, 0, 1).reshape(4, 6).permute(1, 0)
        loss = (b * b).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, 2 * a.data)


def test_concat_splits_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    with Tape():
        loss = (E.concat([a, b], axis=0) * Tensor([1.0, 10.0, 100.0])).sum()
    backward(loss)
    np.testing.assert_allclose(a.grad, [1.0, 10.0])
    np.testing.assert_allclose(b.grad, [100.0])


@pytest.mark.parametrize("shape", [(1, 2, 4, 4), (1, 2, 4)], ids=["off_axis", "rank"])
def test_concat_names_the_shapes_that_do_not_fit(shape):
    """Parts that differ off the axis, or in rank, fail naming every shape."""
    a, b = Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(shape))
    with pytest.raises(DimensionError, match=re.escape(f"[(1, 2, 3, 3), {shape}]")):
        E.concat([a, b], axis=1)


def test_backward_reinitializes_cleared_grad():
    # clearing with `.grad = None` (the torch idiom) must not break the
    # next backward; the sweep re-creates the buffer on first touch
    x = Tensor(np.arange(3.0), requires_grad=True)
    x.grad = None
    with Tape():
        backward((x * x).sum())
    assert np.allclose(x.grad, 2 * x.data)
