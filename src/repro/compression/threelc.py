"""3LC adapted to the common :class:`Compressor` interface.

A :class:`repro.core.codec.ThreeLCCodec` behind the scheme interface: its
contexts are :class:`repro.core.codec.CompressionContext` objects, so the
parameter-server simulator and the harness treat 3LC exactly like every
baseline.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor
from repro.core.codec import CompressionContext, ThreeLCCodec, round_trip_context_batch
from repro.core.packets import WireMessage

__all__ = ["ThreeLCCompressor"]


class ThreeLCCompressor(Compressor):
    """``3LC (s=...)``: the paper's full design.

    Parameters
    ----------
    sparsity_multiplier:
        The compression-level knob ``s`` (``1 <= s < 2``).
    use_zre:
        Disable to measure the "No ZRE" ablation of Table 2.
    error_feedback:
        Disable only for ablation; the paper's 3LC always corrects errors.
    """

    def __init__(
        self,
        sparsity_multiplier: float = 1.0,
        *,
        use_zre: bool = True,
        error_feedback: bool = True,
    ):
        self.codec = ThreeLCCodec(sparsity_multiplier, use_zre=use_zre)
        self.error_feedback = bool(error_feedback)
        suffix = "" if use_zre else ", no ZRE"
        self.name = f"3LC (s={sparsity_multiplier:.2f}{suffix})"

    @property
    def sparsity_multiplier(self) -> float:
        return self.codec.sparsity_multiplier

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressionContext:
        return CompressionContext(shape, self.codec, error_feedback=self.error_feedback)

    def round_trip(self, items) -> tuple[list[np.ndarray], list[int]]:
        # Frame-free: flat passes over the hop, no message per send.
        return round_trip_context_batch(items)

    def decompress(self, message: WireMessage) -> np.ndarray:
        return self.codec.decompress(message)
