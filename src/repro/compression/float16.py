"""16-bit floating-point truncation baseline.

A common practical scheme (half-precision transmission) that the paper's
family of comparisons brackets between ``32-bit float`` and ``8-bit int``:
2× traffic reduction, negligible quantization error, no cross-step state.
Included as an extension baseline for the deployment-planning example and
the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.packets import CodecId, WireMessage

__all__ = ["Float16Compressor"]


class _Float16Context(CompressorContext):
    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor)
        half = arr.astype("<f2")
        message = WireMessage(
            codec_id=CodecId.FLOAT16,
            shape=arr.shape,
            payload=half.tobytes(),
            dtype=np.float32,
        )
        return CompressionResult(message, half.astype(np.float32))


class Float16Compressor(Compressor):
    """``16-bit float``: truncate mantissa/exponent to IEEE half precision."""

    name = "16-bit float"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _Float16Context(shape)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.FLOAT16:
            raise ValueError(f"not a float16 message: {message.codec_id!r}")
        return message.payload_array("<f2", "float16").astype(np.float32)
