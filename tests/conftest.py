"""Shared fixtures.

The engine computes in float32 by default.  Tests that compare against
finite differences or exact float64 oracles take the `float64` fixture (or
mark their module with it), so every tensor they build is float64.
"""

import numpy as np
import pytest

from tecnet import engine


@pytest.fixture
def float64():
    """Run the test under the engine's float64 compute dtype."""
    with engine.precision(np.float64):
        yield
