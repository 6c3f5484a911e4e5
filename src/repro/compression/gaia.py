"""Gaia-style significance filtering (paper §6, reference [17]).

Gaia ships only "significant" state changes across WAN links, judging
significance by the update's *relative* magnitude and shrinking the
significance threshold as training progresses so that later (smaller but
more decisive) updates still flow. 3LC's §6 observation is that it gets
the same send-more-later behaviour for free ("3LC transmits larger
compressed data in the later stage of training without having to control
the compression level explicitly") — this baseline exists to reproduce
that comparison.

Substitution note (recorded in DESIGN.md): Gaia defines significance as
``|update| / |parameter value|``, but parameter values are not visible at
the compression layer of this repo (contexts see only state-change
tensors, the same boundary the paper's own TensorFlow prototype had —
its §5.1 says magnitude, not relative magnitude, was used "for better
accuracy"). We therefore normalize by the tensor's running RMS of
*applied updates*, which preserves the two behaviours the comparison needs:
per-coordinate relative selection and a time-decaying threshold.

Wire format: selection bitmap + float32 values, identical to the top-k
sparsifiers, so the traffic accounting is directly comparable. Unsent
changes accumulate in an error buffer (Gaia's "aggregated delta").
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.compression.topk import decode_bitmap_sparse, encode_bitmap_sparse
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage

__all__ = ["GaiaCompressor"]


def _rms(values: np.ndarray) -> float:
    """Root mean square; 0.0 for an empty tensor (where ``np.mean`` warns
    and gives NaN, which the running RMS would then keep forever)."""
    return float(np.sqrt(np.mean(np.square(values)))) if values.size else 0.0


class _GaiaContext(CompressorContext):
    def __init__(
        self,
        shape: tuple[int, ...],
        initial_threshold: float,
        final_threshold: float,
        decay_steps: int,
    ):
        super().__init__(shape)
        self.initial_threshold = initial_threshold
        self.final_threshold = final_threshold
        self.decay_steps = decay_steps
        self.buffer = ErrorAccumulationBuffer(self.shape)
        self._rms = 0.0  # running RMS of applied updates (significance base)
        self._step = 0

    def threshold_at(self, step: int) -> float:
        """Linearly decayed relative significance threshold."""
        if self.decay_steps == 0 or step >= self.decay_steps:
            return self.final_threshold
        frac = step / self.decay_steps
        return self.initial_threshold + frac * (
            self.final_threshold - self.initial_threshold
        )

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        accumulated = self.buffer.accumulate(arr)
        threshold = self.threshold_at(self._step)
        self._step += 1

        scale = self._rms if self._rms > 0.0 else _rms(accumulated) or 1.0
        selected = np.abs(accumulated) >= threshold * scale
        result = encode_bitmap_sparse(CodecId.GAIA_SPARSE, accumulated, selected)
        self.buffer.subtract(result.reconstruction)
        # Update the significance base from what was actually applied so the
        # relative criterion tracks the decaying update scale.
        applied_rms = _rms(result.reconstruction)
        self._rms = 0.9 * self._rms + 0.1 * applied_rms if self._rms else applied_rms
        return result

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()

    def state_dict(self) -> dict:
        return {
            "residual": self.buffer.residual.copy(),
            "rms": self._rms,
            "step": self._step,
        }

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))
        self._rms = float(state["rms"])
        self._step = int(state["step"])


class GaiaCompressor(Compressor):
    """``Gaia``: relative-significance filtering with a decaying threshold.

    Parameters
    ----------
    initial_threshold:
        Starting relative threshold (Gaia's WAN default is 1% = 0.01 of the
        parameter value; relative to update RMS, 1.0 selects roughly the
        above-average half).
    final_threshold:
        Threshold after ``decay_steps`` (Gaia shrinks it as the learning
        rate decays).
    decay_steps:
        Steps over which the threshold decays linearly.
    """

    def __init__(
        self,
        initial_threshold: float = 2.0,
        final_threshold: float = 0.5,
        decay_steps: int = 200,
    ):
        if initial_threshold < final_threshold:
            raise ValueError("initial_threshold must be >= final_threshold")
        if final_threshold < 0:
            raise ValueError("thresholds must be >= 0")
        if decay_steps < 0:
            raise ValueError(f"decay_steps must be >= 0, got {decay_steps}")
        self.initial_threshold = float(initial_threshold)
        self.final_threshold = float(final_threshold)
        self.decay_steps = int(decay_steps)
        self.name = "Gaia"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _GaiaContext(
            shape, self.initial_threshold, self.final_threshold, self.decay_steps
        )

    def decompress(self, message: WireMessage) -> np.ndarray:
        return decode_bitmap_sparse(message, CodecId.GAIA_SPARSE)
