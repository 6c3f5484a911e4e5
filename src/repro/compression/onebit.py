"""MQE 1-bit quantization with error feedback (paper §5.1, ``MQE 1-bit int``).

Reproduces 1-bit stochastic gradient descent (Seide et al., Interspeech
2014): each value is reduced to its sign bit, and the two reconstruction
magnitudes are chosen to *minimize the squared quantization error* (MQE) —
the mean of the non-negative values and the mean of the negative values.
Quantization errors are accumulated and folded into the next step.

Wire format: a packed bitmap (1 = non-negative partition) plus two float64
reconstruction magnitudes in the scalar header. 32→1 bits per value before
framing overhead.

The paper notes this design's high computation overhead from its
"unconventional rounding function" (partition means rather than a plain
``round()``); the codec-throughput benchmark quantifies our equivalent.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage

__all__ = ["OneBitCompressor"]


def _partition_mean(flat: np.ndarray, mask: np.ndarray) -> float:
    """The mean of ``flat[mask]`` (0 when empty): the partition's MQE level.

    Gathered by index — the same elements in the same order, so ``mean``
    rounds the same — because a boolean extract branches per element and a
    sign mask is a coin flip.
    """
    at = np.flatnonzero(mask)
    return float(flat.take(at).mean()) if at.size else 0.0


def _two_level(bits: np.ndarray, mean_neg: float, mean_pos: float) -> np.ndarray:
    """``mean_pos`` where ``bits`` is set, ``mean_neg`` elsewhere, as float32.

    ``bits`` holds only 0 and 1, so ``take`` may skip its bounds-check pass.
    """
    return np.array([mean_neg, mean_pos], dtype=np.float32).take(bits, mode="wrap")


class _OneBitContext(CompressorContext):
    def __init__(self, shape: tuple[int, ...]):
        super().__init__(shape)
        self.buffer = ErrorAccumulationBuffer(self.shape)

    def state_dict(self) -> dict:
        return {"residual": self.buffer.residual.copy()}

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        flat = self.buffer.accumulate(arr).reshape(-1)
        nonneg = flat >= 0
        mean_pos = _partition_mean(flat, nonneg)
        mean_neg = _partition_mean(flat, ~nonneg)
        message = WireMessage(
            codec_id=CodecId.ONEBIT_MQE,
            shape=arr.shape,
            payload=np.packbits(nonneg).tobytes(),
            scalars=(mean_neg, mean_pos),
            dtype=np.float32,
        )
        reconstruction = _two_level(nonneg, mean_neg, mean_pos).reshape(arr.shape)
        self.buffer.subtract(reconstruction)
        return CompressionResult(message, reconstruction)

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()


class OneBitCompressor(Compressor):
    """``MQE 1-bit int``: sign bit + per-partition mean magnitudes."""

    name = "MQE 1-bit int"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _OneBitContext(shape)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.ONEBIT_MQE:
            raise ValueError(f"not an MQE 1-bit message: {message.codec_id!r}")
        count = message.element_count
        bitmap = np.frombuffer(message.payload, dtype=np.uint8)
        if bitmap.size != -(-count // 8):
            raise ValueError("bitmap size mismatch")
        mean_neg, mean_pos = message.checked_scalars(2)
        bits = np.unpackbits(bitmap, count=count)
        return _two_level(bits, mean_neg, mean_pos).reshape(message.shape)
