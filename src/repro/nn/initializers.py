"""Weight initialization schemes.

ResNet training uses He (Kaiming) normal initialization for convolutions
and linear layers, ones/zeros for batch-norm scale/shift, matching the
original paper's setup.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros", "ones"]


def he_normal(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He normal: N(0, sqrt(2 / fan_in)) — suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in!r}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero tensor (biases, batch-norm shift)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one tensor (batch-norm scale)."""
    return np.ones(shape, dtype=np.float32)
