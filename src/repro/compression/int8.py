"""8-bit integer quantization baseline (paper §5.1, ``8-bit int``).

Approximates the TPU-style internal 8-bit quantization the paper compares
against: symmetric linear quantization onto 255 distinct values
``[-127, 127]`` (−128 unused) with scale ``max(|T|) / 127``. Like the
paper's version it applies no error feedback — at 8 bits the per-step
quantization error is small enough that accuracy is essentially unaffected
(Table 1: −0.04%).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.packets import CodecId, WireMessage
from repro.core.quantization import max_magnitude

__all__ = ["Int8Compressor", "INT8_LEVELS"]

#: Largest quantized magnitude: values span [-127, 127].
INT8_LEVELS = 127


def _dequantize(quantized: np.ndarray, scale: float) -> np.ndarray:
    """``quantized * scale`` in float32, scaled in the buffer of the widening cast."""
    out = quantized.astype(np.float32)
    out *= np.float32(scale)
    return out


class _Int8Context(CompressorContext):
    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor)
        max_mag = max_magnitude(arr)
        if max_mag == 0.0:
            quantized = np.zeros(arr.shape, dtype=np.int8)
            scale = 0.0
        else:
            scale = max_mag / INT8_LEVELS
            # ``out=`` keeps a 0-d tensor an array through the in-place steps.
            ratio = np.divide(arr, scale, out=np.empty_like(arr))
            np.rint(ratio, out=ratio)
            quantized = np.clip(ratio, -INT8_LEVELS, INT8_LEVELS, out=ratio).astype(
                np.int8
            )
        message = WireMessage(
            codec_id=CodecId.INT8,
            shape=arr.shape,
            payload=quantized.tobytes(),
            scalars=(scale,),
            dtype=np.float32,
        )
        return CompressionResult(message, _dequantize(quantized, scale))


class Int8Compressor(Compressor):
    """``8-bit int``: 255-level symmetric linear quantization."""

    name = "8-bit int"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _Int8Context(shape)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.INT8:
            raise ValueError(f"not an int8 message: {message.codec_id!r}")
        quantized = message.payload_array(np.int8, "int8")
        # A forged payload byte can be -128, one past the encoder's levels.
        (scale,) = message.checked_scalars(1, nonnegative=True, times=128.0)
        return _dequantize(quantized, scale)
