"""Tour of the tensor engine: tapes, gradients, and a finite-difference check.

The engine is a small define-by-run autodiff system over dense numpy
arrays of one compute dtype, float32 unless a block runs under
engine.precision(np.float64).  Operations record themselves onto a Tape
while one is open; backward() replays the tape in reverse and accumulates
gradients into the leaves.  Nothing here is batched or lazy, which keeps the
whole mechanism readable end to end.
"""

import numpy as np

from tecnet import Tensor
from tecnet import engine as E
from tecnet.engine import Tape, backward
from tecnet.gradcheck import check_gradients, max_rel_err


def main():
    rng = np.random.default_rng(0)

    # A tiny computation: z = sum(sigmoid(x @ w + b) * scale)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    scale = Tensor([[1.0, -1.0]] * 4)

    with Tape():
        z = (E.sigmoid(x @ w + b) * scale).sum()
        backward(z)

    print("z =", z.item())
    print("dz/db =", b.grad)

    print("compute dtype:", z.data.dtype)

    # The same gradients, checked against central differences.  Those need
    # float64 leaves, so the check builds its own copies under float64.
    with E.precision(np.float64):
        x64, w64, b64 = (Tensor(t.data, requires_grad=True) for t in (x, w, b))
        scale64 = Tensor(scale.data)

        def loss():
            return (E.sigmoid(x64 @ w64 + b64) * scale64).sum()

        rows = check_gradients(loss, [("x", x64), ("w", w64), ("b", b64)], h=1e-5)
    print(f"finite differences agree to {max_rel_err(rows):.2e} relative error")

    # Gradients accumulate across backward calls until cleared.
    x.grad = None
    for _ in range(3):
        with Tape():
            backward((x * x).sum())
    print("3 backward passes of d(x^2)/dx, accumulated:",
          np.allclose(x.grad, 6 * x.data))

    # Ops outside a tape run in plain inference mode: no graph, no grads.
    y = E.relu(x) @ w
    print("untaped result is grad-free:", y.node is None)


if __name__ == "__main__":
    main()
