"""Deep Gradient Compression baseline (paper §6, reference [25]).

Lin et al.'s DGC pushes sparsification to 0.1% of entries and recovers the
lost accuracy with four ML-algorithm modifications that 3LC's §6 explicitly
contrasts itself against ("recovering accuracy necessitates modifying
machine learning algorithms, which reduces their generality"):

* **Momentum correction** — the compressor carries its own momentum
  accumulator ``u`` and velocity ``v`` so that sparsified updates still
  follow momentum-SGD dynamics: ``u = m*u + g``, ``v = v + u``, transmit
  the top entries of ``v``.
* **Momentum factor masking** — both ``u`` and ``v`` are zeroed at the
  transmitted coordinates, preventing stale momentum from re-applying
  already-sent updates.
* **Gradient clipping** — the local gradient is norm-clipped *before*
  accumulation to bound the staleness-amplified variance.
* **Warmup scheduling** — sparsity ramps exponentially (DGC uses
  75% → 93.75% → 98.4% → 99.6% → 99.9% over the first epochs), so early
  training communicates densely.

The reproduction implements all four inside the compression context; the
distributed substrate remains unmodified, which mirrors how DGC deploys
(the trick rides inside the gradient exchange). Note the generality cost
the paper highlights: momentum correction is meaningful only for gradient
pushes, so model-delta pulls should use a plain sparsifier — the cluster's
pull direction uses this class with ``momentum=0``, which degrades it to
top-k with warmup.

Wire format: 32-bit coordinate indices plus float32 values. At DGC's 0.1%
density, indices are far cheaper than the 1-bit-per-entry bitmap the
25%/5% sparsifiers use (crossover at 1/32 density).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.compression.topk import sampled_threshold, scatter_dense
from repro.core.packets import CodecId, WireMessage
from repro.utils.seeding import derive_rng

__all__ = ["DGCCompressor", "WarmupSchedule"]


class WarmupSchedule:
    """Exponential sparsity ramp from ``initial`` to ``final`` density.

    Parameters
    ----------
    initial:
        Fraction of entries transmitted at step 0 (DGC: 0.25).
    final:
        Fraction transmitted after warmup (DGC: 0.001).
    warmup_steps:
        Number of steps over which the transmitted fraction decays
        geometrically from ``initial`` to ``final``.
    """

    def __init__(self, initial: float, final: float, warmup_steps: int):
        if not (0.0 < final <= initial <= 1.0):
            raise ValueError(
                f"need 0 < final <= initial <= 1, got {initial!r}, {final!r}"
            )
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        self.initial = float(initial)
        self.final = float(final)
        self.warmup_steps = int(warmup_steps)

    def fraction_at(self, step: int) -> float:
        """Transmitted fraction at training step ``step`` (0-based)."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if self.warmup_steps == 0 or step >= self.warmup_steps:
            return self.final
        decay = (self.final / self.initial) ** (step / self.warmup_steps)
        return self.initial * decay


class _DGCContext(CompressorContext):
    def __init__(
        self,
        shape: tuple[int, ...],
        schedule: WarmupSchedule,
        momentum: float,
        clip_norm: float | None,
        rng: np.random.Generator,
    ):
        super().__init__(shape)
        self.schedule = schedule
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.rng = rng
        self._u = np.zeros(shape, dtype=np.float32)  # momentum accumulator
        self._v = np.zeros(shape, dtype=np.float32)  # velocity (unsent sum)
        self._step = 0

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        grad = self._check_shape(tensor, finite=True)
        if self.clip_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > self.clip_norm:
                grad = grad * np.float32(self.clip_norm / norm)
        # Momentum correction: velocity accumulates *momentum-corrected*
        # gradients, not raw ones.
        self._u = self.momentum * self._u + grad
        self._v += self._u
        fraction = self.schedule.fraction_at(self._step)
        self._step += 1

        magnitudes = np.abs(self._v)
        threshold = sampled_threshold(magnitudes, fraction, self.rng)
        selected = magnitudes >= threshold
        if threshold == 0.0:
            selected &= self._v != 0
        indices = np.flatnonzero(selected).astype("<u4")
        values = self._v.reshape(-1)[indices].astype("<f4")
        message = WireMessage(
            codec_id=CodecId.DGC_SPARSE,
            shape=grad.shape,
            payload=indices.tobytes() + values.tobytes(),
            dtype=np.float32,
        )
        reconstruction = scatter_dense(indices, values, grad.shape)
        # Momentum factor masking: transmitted coordinates restart both the
        # velocity and the momentum accumulator.
        self._v[selected] = 0.0
        self._u[selected] = 0.0
        return CompressionResult(message, reconstruction)

    def residual_norm(self) -> float:
        return float(np.linalg.norm(self._v))

    def state_dict(self) -> dict:
        return {
            "u": self._u.copy(),
            "v": self._v.copy(),
            "step": self._step,
            "rng": self.rng.bit_generator.state,
        }

    def load_state(self, state: dict) -> None:
        self._u = self._checked_residual(state, "u")
        self._v = self._checked_residual(state, "v")
        self._step = int(state["step"])
        self.rng.bit_generator.state = state["rng"]


class DGCCompressor(Compressor):
    """``DGC (0.1%)``: aggressive sparsification with accuracy compensation.

    Parameters
    ----------
    fraction:
        Post-warmup transmitted fraction (DGC: 0.001).
    momentum:
        Momentum-correction coefficient; use the local optimizer's momentum
        (DGC and this repo's trainer both default to 0.9). Zero disables
        correction (appropriate for model-delta pulls).
    warmup_steps:
        Length of the exponential sparsity ramp.
    initial_fraction:
        Transmitted fraction at the start of warmup (DGC: 0.25).
    clip_norm:
        L2 clipping bound applied to each incoming gradient, ``None`` to
        disable.
    """

    def __init__(
        self,
        fraction: float = 0.001,
        *,
        momentum: float = 0.9,
        warmup_steps: int = 40,
        initial_fraction: float = 0.25,
        clip_norm: float | None = None,
        seed: int = 0,
    ):
        # A final fraction denser than the ramp start makes warmup moot.
        self.schedule = WarmupSchedule(
            max(initial_fraction, fraction), fraction, warmup_steps
        )
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum!r}")
        self.fraction = float(fraction)
        self.momentum = float(momentum)
        self.clip_norm = None if clip_norm is None else float(clip_norm)
        self.seed = int(seed)
        self.name = f"DGC ({fraction:.2%})"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        # Momentum correction is a gradient-push concept; pull contexts
        # (key starts with "pull" in the cluster) degrade to warmup top-k.
        momentum = 0.0 if key and key[0] == "pull" else self.momentum
        return _DGCContext(
            self.shape_checked(shape),
            self.schedule,
            momentum,
            self.clip_norm,
            derive_rng(self.seed, "dgc", self.fraction, *key),
        )

    @staticmethod
    def shape_checked(shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = tuple(int(d) for d in shape)
        count = int(np.prod(shape)) if shape else 1
        if count >= 2**32:
            raise ValueError("tensor too large for 32-bit DGC indices")
        return shape

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.DGC_SPARSE:
            raise ValueError(f"not a DGC message: {message.codec_id!r}")
        count = message.element_count
        if len(message.payload) % 8:
            raise ValueError("DGC payload length must be a multiple of 8")
        n = len(message.payload) // 8
        indices = np.frombuffer(message.payload[: 4 * n], dtype="<u4")
        values = np.frombuffer(message.payload[4 * n :], dtype="<f4")
        if indices.size and int(indices.max()) >= count:
            raise ValueError("DGC index out of range (corrupted frame?)")
        return scatter_dense(indices, values, message.shape)
