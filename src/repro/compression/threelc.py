"""3LC adapted to the common :class:`Compressor` interface.

Thin wrapper around :class:`repro.core.codec.ThreeLCCodec` /
:class:`repro.core.codec.CompressionContext` so the parameter-server
simulator and the harness treat 3LC exactly like every baseline.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.codec import CompressionContext as CoreContext
from repro.core.codec import (
    ThreeLCCodec,
    compress_context_batch,
    round_trip_context_batch,
)
from repro.core.packets import WireMessage

__all__ = ["ThreeLCCompressor"]


class _ThreeLCContext(CompressorContext):
    def __init__(self, shape: tuple[int, ...], core: CoreContext):
        super().__init__(shape)
        self.core = core

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        return self.core.compress(self._check_shape(tensor))

    def residual_norm(self) -> float:
        return self.core.residual_norm()

    def state_dict(self) -> dict:
        return self.core.state_dict()

    def load_state(self, state: dict) -> None:
        if "residual" in state:
            # Validate against *this* context's shape before touching the
            # core buffer: a checkpoint restored into the wrong tensor's
            # context must fail loudly, not silently corrupt error
            # feedback.
            state = dict(state, residual=self._checked_residual(state))
        self.core.load_state(state)


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
    ) -> CompressorContext:
        return _ThreeLCContext(
            shape, CoreContext(shape, self.codec, error_feedback=self.error_feedback)
        )

    def compress_batch(self, items) -> list[CompressionResult]:
        # The core contexts make the wrapper's shape and dtype checks.
        return compress_context_batch(
            (context.core, tensor) for context, tensor in items
        )

    def round_trip(self, items) -> tuple[list[np.ndarray], list[int]]:
        # Frame-free: flat passes over the hop, no message per send.
        return round_trip_context_batch([(c.core, tensor) for c, tensor in items])

    def decompress(self, message: WireMessage) -> np.ndarray:
        return self.codec.decompress(message)

    def decompress_batch(self, messages) -> list[np.ndarray]:
        return self.codec.decompress_batch(messages)
