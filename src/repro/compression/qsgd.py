"""QSGD baseline: stochastic multi-level quantization + Elias coding.

Reproduces Alistarh et al.'s QSGD (paper §6, reference [3]), the main
multi-bit stochastic quantization scheme 3LC compares against. Each value
is quantized to one of ``levels + 1`` magnitude rungs relative to the
tensor's L2 norm, with stochastic rounding that makes the quantized tensor
an *unbiased* estimator of the input — QSGD's convergence story, in
contrast to 3LC's deterministic rounding plus error feedback.

Wire format: the L2 norm as a scalar, a packed sign bitmap, and the level
integers Elias-gamma coded (levels are shifted by one; gamma cannot code
zero). Gamma coding is what makes QSGD's traffic adaptive: near-zero
tensors cost ~1 bit per value, dense ones up to ``2*log2(levels)+1``.

No error accumulation buffer is kept: QSGD relies on unbiasedness rather
than error correction, exactly the design choice §3.1 argues against for
3-value quantization ("error correction ... achieves better accuracy than
stochastic quantization in our evaluation").
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.elias import (
    elias_delta_decode,
    elias_delta_encode,
    elias_gamma_decode,
    elias_gamma_encode,
)
from repro.core.packets import CodecId, WireMessage
from repro.utils.seeding import derive_rng

__all__ = ["QSGDCompressor", "qsgd_quantize", "qsgd_dequantize"]

#: Elias coders selectable per compressor. The QSGD paper's analysis uses
#: recursive Elias coding, whose first two rungs these are; gamma wins on
#: the near-ternary level distributions low-bit QSGD emits, delta at high
#: bit widths (scalar 2 in the wire frame says which one was used, so
#: decoding is self-describing).
_CODINGS = {
    "gamma": (0.0, elias_gamma_encode, elias_gamma_decode),
    "delta": (1.0, elias_delta_encode, elias_delta_decode),
}
_CODING_BY_ID = {int(cid): (enc, dec) for cid, enc, dec in _CODINGS.values()}


def qsgd_quantize(
    tensor: np.ndarray, levels: int, rng: np.random.Generator
) -> tuple[float, np.ndarray, np.ndarray]:
    """Stochastically quantize ``tensor`` onto ``levels`` magnitude rungs.

    Returns ``(norm, signs, level_indices)`` where ``signs`` is boolean
    (True = negative) and ``level_indices`` is integer in ``[0, levels]``.
    The expectation of ``sign * norm * level / levels`` equals the input.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    arr = np.asarray(tensor, dtype=np.float32)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        zeros = np.zeros(arr.shape, dtype=np.int64)
        return 0.0, np.zeros(arr.shape, dtype=bool), zeros
    scaled = np.abs(arr) * (levels / norm)
    floor = np.floor(scaled)
    frac = scaled - floor
    bump = rng.random(arr.shape, dtype=np.float32) < frac
    level = (floor + bump).astype(np.int64)
    return norm, arr < 0, level


def qsgd_dequantize(
    norm: float, signs: np.ndarray, levels_idx: np.ndarray, levels: int
) -> np.ndarray:
    """Reconstruct the unbiased estimate from quantized components."""
    magnitude = levels_idx.astype(np.float32) * np.float32(norm / levels)
    return np.where(signs, -magnitude, magnitude).astype(np.float32)


class _QSGDContext(CompressorContext):
    def __init__(
        self,
        shape: tuple[int, ...],
        levels: int,
        rng: np.random.Generator,
        coding: str,
    ):
        super().__init__(shape)
        self.levels = levels
        self.rng = rng
        self.coding_id, self._encode, _ = _CODINGS[coding]

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        norm, signs, level = qsgd_quantize(arr, self.levels, self.rng)
        sign_bytes = np.packbits(signs.reshape(-1)).tobytes()
        coded = self._encode(level.reshape(-1) + 1)
        message = WireMessage(
            codec_id=CodecId.QSGD,
            shape=arr.shape,
            payload=sign_bytes + coded,
            scalars=(norm, float(self.levels), self.coding_id),
            dtype=np.float32,
        )
        reconstruction = qsgd_dequantize(norm, signs, level, self.levels)
        return CompressionResult(message, reconstruction)

    def state_dict(self) -> dict:
        return {"rng": self.rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


class QSGDCompressor(Compressor):
    """``QSGD (b-bit)``: unbiased stochastic quantization with gamma coding.

    Parameters
    ----------
    bits:
        Resolution of the magnitude grid; ``levels = 2**bits - 1``. The
        QSGD paper evaluates 2-8 bits; 2 bits (3 magnitude rungs) is the
        closest analogue of 3LC's 3-value quantization.
    seed:
        Root seed for the per-context stochastic rounding streams.
    coding:
        Integer coder for the level stream: ``"gamma"`` (default; best on
        the near-ternary distributions low-bit QSGD emits) or ``"delta"``
        (asymptotically tighter, wins at high bit widths).
    """

    def __init__(self, bits: int = 2, seed: int = 0, *, coding: str = "gamma"):
        if not (1 <= bits <= 16):
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        if coding not in _CODINGS:
            raise ValueError(
                f"coding must be one of {sorted(_CODINGS)}, got {coding!r}"
            )
        self.bits = int(bits)
        self.levels = (1 << self.bits) - 1
        self.seed = int(seed)
        self.coding = coding
        suffix = "" if coding == "gamma" else f", {coding}"
        self.name = f"QSGD ({bits}-bit{suffix})"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _QSGDContext(
            shape,
            self.levels,
            derive_rng(self.seed, "qsgd", self.bits, *key),
            self.coding,
        )

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.QSGD:
            raise ValueError(f"not a QSGD message: {message.codec_id!r}")
        # Frames from before the coding field carry two scalars (gamma coding).
        norm, levels_f, *coding_f = message.checked_scalars(
            2 if len(message.scalars) == 2 else 3, nonnegative=True
        )
        coding_id = int(coding_f[0]) if coding_f else 0
        if coding_id not in _CODING_BY_ID:
            raise ValueError(f"unknown QSGD coding id {coding_id}")
        _, decode = _CODING_BY_ID[coding_id]
        levels = int(levels_f)
        count = message.element_count
        sign_bytes = -(-count // 8)
        signs = np.unpackbits(
            np.frombuffer(message.payload[:sign_bytes], dtype=np.uint8), count=count
        ).astype(bool)
        level = decode(message.payload[sign_bytes:], count).astype(np.int64) - 1
        if level.size and (level.min() < 0 or level.max() > levels):
            raise ValueError("QSGD level out of range (corrupted frame?)")
        out = qsgd_dequantize(norm, signs, level, levels) if norm else np.zeros(
            count, dtype=np.float32
        )
        return out.reshape(message.shape)
