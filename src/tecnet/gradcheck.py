"""Finite-difference verification of reverse-mode gradients.

Central differences with step h on selected coordinates, compared against
the tape gradient with the relative error

    err = |g_ad - g_fd| / max(1, |g_ad|, |g_fd|)

so tiny gradients are judged on absolute error and large ones on relative.
The probed leaves must be float64: at h = 1e-4 a float32 central difference
is off by about 1e-3, which would drown the errors the check looks for.
Build the function and its leaves under ``engine.precision(np.float64)``.
"""

from __future__ import annotations

import numpy as np

from .engine import Tape, Tensor, backward
from .errors import UsageError


def fd_gradient(fn, t: Tensor, coords, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar fn() w.r.t. flat coords of t."""
    flat = t.data.reshape(-1)
    out = np.empty(len(coords))
    for j, c in enumerate(coords):
        keep = flat[c]
        flat[c] = keep + h
        up = fn().item()
        flat[c] = keep - h
        down = fn().item()
        flat[c] = keep
        out[j] = (up - down) / (2.0 * h)
    return out


def check_gradients(fn, params, h: float = 1e-4, max_coords: int | None = None,
                    rng: np.random.Generator | None = None):
    """Compare tape gradients of scalar fn() against central differences.

    params: iterable of (name, Tensor) leaves to probe.  When max_coords is
    given, at most that many coordinates per tensor are sampled (always at
    least one); otherwise every coordinate is checked.  Returns a list of
    (name, coord, g_ad, g_fd, rel_err) with the worst error last-sorted
    by the caller if needed.
    """
    params = list(params)
    for name, p in params:
        if p.data.dtype != np.float64:
            raise UsageError(
                f"gradient check of {name} needs a float64 leaf, got {p.data.dtype}; "
                "build it under engine.precision(np.float64)")
    for _, p in params:
        p.zero_grad()
    with Tape():
        loss = fn()
    backward(loss)
    ad = {name: (None if p.grad is None else p.grad.reshape(-1).copy())
          for name, p in params}

    rows = []
    for name, p in params:
        n = p.data.size
        if max_coords is None or n <= max_coords:
            coords = list(range(n))
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = sorted(rng.choice(n, size=max(1, max_coords), replace=False).tolist())
        g_fd = fd_gradient(fn, p, coords, h=h)
        g_ad_flat = ad[name]
        for c, fd in zip(coords, g_fd):
            ga = 0.0 if g_ad_flat is None else float(g_ad_flat[c])
            err = abs(ga - fd) / max(1.0, abs(ga), abs(fd))
            rows.append((name, c, ga, fd, err))
    return rows


def max_rel_err(rows) -> float:
    return max(r[4] for r in rows) if rows else 0.0
