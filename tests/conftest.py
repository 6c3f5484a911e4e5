"""Shared test configuration."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# NumPy-heavy property tests can be slow on loaded CI machines; disable the
# per-example deadline and register a thorough profile.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("repro")

# A NaN in a codec is an error: "invalid value encountered" (or an overflow,
# or a division by zero) from an encoder or decoder fails these suites.
_WARNING_FREE = tuple(Path(__file__).parent / name for name in ("compression", "core"))


def pytest_collection_modifyitems(items):
    for item in items:
        if any(root in item.path.parents for root in _WARNING_FREE):
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test generator."""
    return np.random.default_rng(12345)
