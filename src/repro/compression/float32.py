"""Uncompressed 32-bit float transmission — the paper's baseline (§5.1).

The payload is the raw little-endian float32 buffer. Lossless, so no error
feedback is needed and the reconstruction equals the input bit-for-bit. A
frame holds one copy of the tensor, its payload: the sender's reconstruction
and the receiver's decode are read-only views of it.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.packets import CodecId, WireMessage

__all__ = ["Float32Compressor"]


class _Float32Context(CompressorContext):
    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor)
        payload = np.asarray(arr, dtype="<f4").tobytes()
        message = WireMessage(
            codec_id=CodecId.FLOAT32, shape=arr.shape, payload=payload, dtype=np.float32
        )
        return CompressionResult(message, np.ndarray(arr.shape, "<f4", payload))


class Float32Compressor(Compressor):
    """``32-bit float``: transmit state changes verbatim."""

    name = "32-bit float"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _Float32Context(shape)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.FLOAT32:
            raise ValueError(f"not a float32 message: {message.codec_id!r}")
        return message.payload_array("<f4", "float32")
