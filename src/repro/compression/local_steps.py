"""Infrequent communication baseline (paper §5.1, ``2 local steps``).

Transmits state changes every ``period`` local steps. Updates that are not
sent are accumulated locally (via the same error-accumulation machinery)
and folded into the next transmitted step. With ``period=2`` this halves
the traffic and effectively doubles the global batch size — the federated-
learning-style design the paper evaluates.

The wrapped inner compressor defaults to uncompressed float32, matching the
paper's design (it isolates the effect of *infrequency*, not encoding).
On off-steps :meth:`compress` returns ``None``; the cluster transmits
nothing for the tensor and the server applies no update.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.compression.float32 import Float32Compressor
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import WireMessage

__all__ = ["LocalStepsCompressor"]


class _LocalStepsContext(CompressorContext):
    def __init__(
        self, shape: tuple[int, ...], period: int, inner: CompressorContext
    ):
        super().__init__(shape)
        self.period = period
        self.inner = inner
        self.buffer = ErrorAccumulationBuffer(self.shape)
        self._step = 0

    def compress(self, tensor: np.ndarray) -> CompressionResult | None:
        arr = self._check_shape(tensor, finite=True)
        accumulated = self.buffer.accumulate(arr)
        self._step += 1
        if self._step % self.period != 0:
            return None
        result = self.inner.compress(accumulated)
        if result is None:  # pragma: no cover - inner schemes always transmit
            raise RuntimeError("inner compressor deferred on a transmit step")
        self.buffer.subtract(result.reconstruction)
        return result

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()

    def state_dict(self) -> dict:
        return {
            "residual": self.buffer.residual.copy(),
            "step": self._step,
            "inner": self.inner.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))
        self._step = int(state["step"])
        self.inner.load_state(state["inner"])


class LocalStepsCompressor(Compressor):
    """``N local steps``: transmit every ``period`` steps, accumulate between."""

    def __init__(self, period: int = 2, inner: Compressor | None = None):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period!r}")
        self.period = int(period)
        self.inner = inner if inner is not None else Float32Compressor()
        self.defers_transmission = self.period > 1
        self.name = f"{period} local steps"
        if inner is not None and not isinstance(inner, Float32Compressor):
            # Compositions (e.g. local steps over 3LC) carry both labels.
            self.name += f" + {inner.name}"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _LocalStepsContext(
            shape, self.period, self.inner.make_context(shape, key=key)
        )

    def make_bypass_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        # Local-steps changes the transmission *schedule*, which applies to
        # small tensors too — they are merely exempt from lossy encoding.
        return _LocalStepsContext(
            shape, self.period, Float32Compressor().make_context(shape, key=key)
        )

    def decompress(self, message: WireMessage) -> np.ndarray:
        return self.inner.decompress(message)
