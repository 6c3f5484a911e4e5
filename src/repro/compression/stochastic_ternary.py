"""Stochastic 3-value quantization + quartic encoding (``Stoch 3-value + QE``).

The TernGrad-like baseline of §5.1: unbiased stochastic ternary quantization
(without gradient clipping) followed by *our* quartic encoding, so it
transmits 1.6 bits per value — tighter than TernGrad's own 2-bit encoding.

Deliberately **no error feedback**: the paper reports that combining error
accumulation buffers with stochastic quantization made training fail to
converge (§3.1, "Alternative quantization techniques"), and evaluates this
design without them. Also no ZRE, matching the compared design's name.

Each context derives its own PCG64 stream from the context key so that the
randomness is reproducible and independent across tensors/workers.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.codec import pack_ternary, unpack_frame
from repro.core.packets import CodecId, WireMessage
from repro.core.quantization import max_magnitude
from repro.utils.seeding import derive_rng

__all__ = ["StochasticTernaryCompressor"]


class _StochTernaryContext(CompressorContext):
    def __init__(self, shape: tuple[int, ...], rng: np.random.Generator):
        super().__init__(shape)
        self.rng = rng

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor)
        scale = max_magnitude(arr)
        packed, _, recon = pack_ternary(arr.reshape(-1), [arr.size], [scale], self._draw)
        message = WireMessage(
            codec_id=CodecId.STOCHASTIC_TERNARY_QE,
            shape=arr.shape,
            payload=packed.tobytes(),
            scalars=(scale,),
            dtype=np.float32,
        )
        return CompressionResult(message, recon.reshape(arr.shape))

    def _draw(self, segment: np.ndarray, scale: float, out: np.ndarray) -> None:
        """``sign(t)`` with probability ``|t| / scale``, else 0, into ``out``
        (as :func:`~repro.core.quantization.quantize_stochastic_ternary`)."""
        keep = self.rng.random(segment.shape) < np.abs(segment) / scale
        np.copysign(keep, segment, out=out)

    def state_dict(self) -> dict:
        return {"rng": self.rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


class StochasticTernaryCompressor(Compressor):
    """``Stoch 3-value + QE``: unbiased ternary quantization, 1.6 bits/value.

    Parameters
    ----------
    seed:
        Root seed for per-context stochastic rounding streams.
    """

    name = "Stoch 3-value + QE"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _StochTernaryContext(
            shape, derive_rng(self.seed, "stoch-ternary", *key)
        )

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.STOCHASTIC_TERNARY_QE:
            raise ValueError(
                f"not a stochastic-ternary message: {message.codec_id!r}"
            )
        (scale,) = message.checked_scalars(1, nonnegative=True)
        return unpack_frame(message, scale, False, np.float32)
