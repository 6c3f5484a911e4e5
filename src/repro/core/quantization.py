"""3-value quantization with sparsity multiplication (paper §3.1).

The lossy stage of 3LC. Given an input tensor ``T`` and a sparsity
multiplier ``s`` with ``1 <= s < 2``:

.. math::

    M = \\max(|T|) \\cdot s, \\qquad
    Q = \\mathrm{round}(T / M) \\in \\{-1, 0, 1\\}, \\qquad
    T_{out} = M \\cdot Q.

Because ``|T / M| <= 1/s <= 1``, rounding yields only the three values
``{-1, 0, 1}``. Raising ``s`` above 1 shrinks ``|T/M|`` so that more entries
round to zero — the *sparsity multiplication* knob that trades information
for compressibility — while dequantization with the larger ``M`` preserves
the magnitude of the surviving values.

The paper's convergence argument (§3.1 "Convergence") follows from the error
bound enforced here: ``max|T - M·Q| <= M/2 < max|T|`` for ``1 <= s < 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedTensor",
    "quantize_3value",
    "segment_scales",
    "max_magnitude",
    "MIN_SPARSITY_MULTIPLIER",
    "MAX_SPARSITY_MULTIPLIER",
]

MIN_SPARSITY_MULTIPLIER = 1.0
MAX_SPARSITY_MULTIPLIER = 2.0  # exclusive


@dataclass(frozen=True)
class QuantizedTensor:
    """Result of 3-value quantization.

    Attributes
    ----------
    values:
        ``int8`` array with entries in ``{-1, 0, 1}``, same shape as input.
    scale:
        The scalar ``M`` (max magnitude times sparsity multiplier). Zero
        if and only if the input tensor was entirely zero.
    """

    values: np.ndarray
    scale: float


def _validate_multiplier(s: float) -> float:
    s = float(s)
    if not (MIN_SPARSITY_MULTIPLIER <= s < MAX_SPARSITY_MULTIPLIER):
        raise ValueError(
            f"sparsity multiplier must satisfy 1 <= s < 2, got {s!r}"
        )
    return s


def max_magnitude(arr: np.ndarray) -> float:
    """``max(|arr|)`` (+0.0 when empty or all zeros, even -0.0 ones) from one
    ``max`` and one ``min`` pass.

    NaN propagates through both and an infinity survives one of them, so the
    non-finite check rides along with no ``isfinite`` or ``abs`` temporary.
    """
    if arr.size == 0:
        return 0.0
    magnitude = max(float(arr.max()), -float(arr.min())) + 0.0
    if not math.isfinite(magnitude):
        raise ValueError("cannot quantize non-finite tensor")
    return magnitude


def quantize_3value(tensor: np.ndarray, s: float = 1.0) -> QuantizedTensor:
    """Quantize a real tensor onto ``{-1, 0, 1}`` (Equations 1–2).

    Parameters
    ----------
    tensor:
        Any-shape floating-point array. Must be finite.
    s:
        Sparsity multiplier, ``1 <= s < 2``. Larger values emit more zeros.

    Returns
    -------
    QuantizedTensor
        Ternary values plus the dequantization scale ``M``.

    Notes
    -----
    Uses plain ``np.rint`` (round-half-to-even), the vectorizable
    ``round()`` the paper chooses over custom rounding functions. The half
    case ``|t| = M/2`` is measure-zero for real gradients and either
    rounding direction keeps the ``M/2`` error bound.
    """
    s = _validate_multiplier(s)
    arr = np.asarray(tensor)
    scale = max_magnitude(arr) * s
    if scale == 0.0:
        return QuantizedTensor(np.zeros(arr.shape, dtype=np.int8), 0.0)
    ratio = arr / scale  # rounded in its own buffer
    return QuantizedTensor(np.rint(ratio, out=ratio).astype(np.int8), scale)


def segment_scales(
    flat: np.ndarray, lengths: np.ndarray, s: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``flat`` and ``lengths`` as flat arrays, and the float64 scale
    ``M_i = max(|segment_i|) * s`` of each segment: :func:`quantize_3value`'s
    scale per segment, from a ``maximum.reduceat`` and a ``minimum.reduceat``."""
    s = _validate_multiplier(s)
    flat = np.asarray(flat).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.intp)
    total = int(lengths.sum())
    if flat.size != total:
        raise ValueError(
            f"segment lengths sum to {total}, flat array has {flat.size}"
        )
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    mags = np.zeros(lengths.shape[0], dtype=np.float64)
    nonempty = lengths > 0
    if flat.size:
        # Zero-length segments occupy no indices, so consecutive nonempty
        # starts bound exactly one segment each (cf. max_magnitude).
        live = starts[nonempty]
        lows = np.minimum.reduceat(flat, live).astype(np.float64)
        # + 0.0: an all-zero segment's scale is +0.0, as in max_magnitude.
        mags[nonempty] = np.maximum(np.maximum.reduceat(flat, live), -lows) + 0.0
        finite = np.isfinite(mags)
        if not finite.all():
            raise ValueError(
                "cannot quantize non-finite tensor "
                f"(segment {int(np.argmin(finite))})"
            )
    return flat, lengths, mags * s
