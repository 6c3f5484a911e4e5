"""Top-k sparsification baselines (paper §5.1, ``25%``/``5% sparsification``).

Reproduces the common sparsification family (Bösen, Gaia, gradient dropping,
Deep Gradient Compression): transmit only the fraction ``p`` of entries with
the largest *absolute* magnitude (the paper uses magnitude, not relative
magnitude, "for better accuracy"), and accumulate the unsent remainder in an
error buffer for later steps.

Threshold selection avoids exhaustive sorting, as in Aji & Heafield: the
threshold is the ``(1-p)``-quantile of ``|values|`` over a bounded random
sample of the tensor (§5.1: "we only sort sampled input values").

Wire format (as in the paper): a selection bitmap costing 1 bit per state
change regardless of input size, plus the selected values as float32.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage
from repro.utils.seeding import derive_rng

__all__ = [
    "TopKCompressor",
    "sampled_threshold",
    "scatter_dense",
    "encode_bitmap_sparse",
    "decode_bitmap_sparse",
    "DEFAULT_SAMPLE_SIZE",
]

#: Number of entries sampled when estimating the selection threshold.
DEFAULT_SAMPLE_SIZE = 4096


def sampled_threshold(
    magnitudes: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> float:
    """Estimate the magnitude threshold that keeps ``fraction`` of entries.

    Sorting the full tensor is O(n log n) on multi-million-element tensors;
    sampling bounds the cost while keeping the selected fraction close to
    the target in expectation.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    flat = magnitudes.reshape(-1)
    if flat.size == 0:
        return 0.0
    if flat.size > sample_size:
        sample = rng.choice(flat, size=sample_size, replace=False)
    else:
        sample = flat.copy()  # partitioned below; ``magnitudes`` is read again
    # The smallest transmitted magnitude is the order statistic
    # ``np.quantile(sample, 1 - fraction, method="lower")`` picks, at the
    # same floored float64 index; "lower" keeps the share >= fraction on ties.
    k = math.floor((sample.size - 1) * (1.0 - fraction))
    sample.partition(k)
    return float(sample[k])


def scatter_dense(
    indices: np.ndarray, values: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """A float32 tensor of ``shape``: ``values`` at flat ``indices``, +0.0 elsewhere."""
    out = np.zeros(shape, dtype=np.float32)
    out.reshape(-1)[indices] = values
    return out


def encode_bitmap_sparse(
    codec_id: CodecId, tensor: np.ndarray, selected: np.ndarray
) -> CompressionResult:
    """Frame the ``selected`` entries of a float32 ``tensor``.

    The one bitmap-sparse wire format (top-k and Gaia): a selection bitmap,
    1 bit per entry, then the selected values as float32. The values are
    gathered once, by index, and the reconstruction is those same values
    scattered over zeros.
    """
    indices = np.flatnonzero(selected)
    values = tensor.reshape(-1).take(indices)
    message = WireMessage(
        codec_id=codec_id,
        shape=tensor.shape,
        payload=np.packbits(selected.reshape(-1)).tobytes()
        + values.astype("<f4", copy=False).tobytes(),
        dtype=np.float32,
    )
    return CompressionResult(message, scatter_dense(indices, values, tensor.shape))


def decode_bitmap_sparse(message: WireMessage, codec_id: CodecId) -> np.ndarray:
    """Invert :func:`encode_bitmap_sparse` for a ``codec_id`` frame."""
    if message.codec_id is not codec_id:
        raise ValueError(f"not a {codec_id.name} message: {message.codec_id!r}")
    count = message.element_count
    bitmap_bytes = -(-count // 8)
    bitmap = np.frombuffer(message.payload[:bitmap_bytes], dtype=np.uint8)
    indices = np.flatnonzero(np.unpackbits(bitmap, count=count).view(bool))
    values = np.frombuffer(message.payload[bitmap_bytes:], dtype="<f4")
    if values.size != indices.size:
        raise ValueError("selected-value count mismatch")
    return scatter_dense(indices, values, message.shape)


class _TopKContext(CompressorContext):
    def __init__(
        self, shape: tuple[int, ...], fraction: float, rng: np.random.Generator
    ):
        super().__init__(shape)
        self.fraction = fraction
        self.rng = rng
        self.buffer = ErrorAccumulationBuffer(self.shape)

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        corrected = self.buffer.accumulate(arr)
        magnitudes = np.abs(corrected)
        threshold = sampled_threshold(magnitudes, self.fraction, self.rng)
        selected = magnitudes >= threshold
        # A zero threshold (e.g. mostly-zero tensor) would select everything;
        # in that degenerate case transmit only true non-zeros.
        if threshold == 0.0:
            selected &= corrected != 0
        result = encode_bitmap_sparse(CodecId.TOPK_SPARSE, corrected, selected)
        self.buffer.subtract(result.reconstruction)
        return result

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()

    def state_dict(self) -> dict:
        return {
            "residual": self.buffer.residual.copy(),
            "rng": self.rng.bit_generator.state,
        }

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))
        self.rng.bit_generator.state = state["rng"]


class TopKCompressor(Compressor):
    """``{p}% sparsification``: magnitude top-k with bitmap wire format."""

    def __init__(self, fraction: float, seed: int = 0):
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.name = f"{fraction:.0%} sparsification"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _TopKContext(
            shape, self.fraction, derive_rng(self.seed, "topk", self.fraction, *key)
        )

    def decompress(self, message: WireMessage) -> np.ndarray:
        return decode_bitmap_sparse(message, CodecId.TOPK_SPARSE)
