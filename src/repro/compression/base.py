"""Common interface for all state-change compression schemes.

Every compared design in the paper's evaluation (§5.1) is implemented as a
:class:`Compressor` — a stateless scheme descriptor — that manufactures
per-tensor, per-direction :class:`CompressorContext` objects holding any
cross-step state (error accumulation buffers, RNG streams, local-step
counters). This mirrors 3LC's "one compression context per tensor per
direction" architecture and lets the parameter-server simulator treat every
scheme uniformly.

Contexts may return ``None`` from :meth:`CompressorContext.compress` to
signal "nothing transmitted this step" (used by the N-local-steps design);
the cluster then skips the wire entirely for that tensor.
"""

from __future__ import annotations

import abc
import functools
import math

import numpy as np

from repro.core.codec import CompressionResult
from repro.core.packets import WireMessage

__all__ = [
    "Compressor",
    "CompressorContext",
    "CompressionResult",
    "snapshot_contexts",
    "restore_contexts",
]


class CompressorContext(abc.ABC):
    """Cross-step state for one tensor travelling in one direction."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(int(d) for d in shape)

    @abc.abstractmethod
    def compress(self, tensor: np.ndarray) -> CompressionResult | None:
        """Compress one step's state change.

        Returns ``None`` when the scheme defers transmission this step
        (the deferred update must then be folded into a later step).
        """

    def residual_norm(self) -> float:
        """L2 norm of any untransmitted residual (0 for lossless schemes)."""
        return 0.0

    def state_dict(self) -> dict:
        """Cross-step state for checkpointing.

        Error buffers, momentum accumulators, step counters, and RNG
        states are *training state*: dropping them on restart silently
        loses every deferred update. Contexts with such state override
        this pair; stateless contexts return ``{}``. The returned dict
        holds only arrays, numbers, and nested dicts (``numpy.savez`` /
        JSON friendly).
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into a fresh context."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but got state keys "
                f"{sorted(state)}"
            )

    def _checked_residual(self, state: dict, key: str = "residual") -> np.ndarray:
        """Validate and return a residual array from checkpoint state."""
        arr = np.asarray(state[key], dtype=np.float32)
        if arr.shape != self.shape:
            raise ValueError(
                f"checkpoint residual shape {arr.shape} != context {self.shape}"
            )
        return arr

    def _check_shape(self, tensor: np.ndarray, *, finite: bool = False) -> np.ndarray:
        arr = np.asarray(tensor, dtype=np.float32)
        if arr.shape != self.shape:
            raise ValueError(f"context shape {self.shape}, tensor {arr.shape}")
        # A stateful lossy scheme would keep a NaN or an infinity in its
        # residual for good: ``finite`` refuses one as 3LC's quantizer does.
        if finite and arr.size and not math.isfinite(float(arr.max()) - float(arr.min())):
            raise ValueError("cannot compress non-finite tensor")
        return arr


def snapshot_contexts(contexts: dict) -> dict:
    """Checkpoint a keyed mapping of contexts: ``{key: state_dict()}``.

    Each :meth:`CompressorContext.state_dict` copies its arrays, so the
    snapshot stays valid while the live contexts keep compressing — the
    fault-recovery layer takes one at crash time and restores it when the
    worker rejoins.
    """
    return {key: context.state_dict() for key, context in contexts.items()}


def restore_contexts(contexts: dict, snapshot: dict) -> None:
    """Restore :func:`snapshot_contexts` output into live contexts.

    The key sets must match exactly: a checkpoint from a different tensor
    layout (or scheme) must fail loudly rather than partially restore.
    """
    if set(contexts) != set(snapshot):
        missing = sorted(set(contexts) - set(snapshot))
        extra = sorted(set(snapshot) - set(contexts))
        raise ValueError(
            f"checkpoint does not match contexts (missing keys {missing}, "
            f"unexpected keys {extra})"
        )
    for key, context in contexts.items():
        context.load_state(snapshot[key])


@functools.cache
def _bypass_compressor() -> "Compressor":
    """The one raw-float32 scheme every bypass message goes through.

    Stateless, so all schemes share it; built on first use because
    ``float32`` imports this module.
    """
    from repro.compression.float32 import Float32Compressor

    return Float32Compressor()


class Compressor(abc.ABC):
    """A compression scheme: factory for contexts plus a stateless decoder.

    Attributes
    ----------
    name:
        Scheme label as it appears in the paper's tables (e.g.
        ``"3LC (s=1.75)"``).
    defers_transmission:
        True when ``compress`` may return ``None`` to skip a step
        (N-local-steps style schedule changers). Such schemes cannot run
        on collectives — a ring hop must carry *something* — so sweeps
        over ring topologies filter on this flag.
    """

    name: str = "abstract"
    defers_transmission: bool = False

    @abc.abstractmethod
    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        """Create per-tensor sender state.

        Parameters
        ----------
        shape:
            Tensor shape the context will transmit.
        key:
            Stream key for stochastic schemes (e.g. ``("push", worker, name)``)
            so that every context draws reproducible, independent randomness.
        """

    @abc.abstractmethod
    def decompress(self, message: WireMessage) -> np.ndarray:
        """Decode a wire message. Receivers carry no cross-step state."""

    def round_trip(self, items) -> tuple[list[np.ndarray], list[int]]:
        """One ring hop: ``(context, tensor)`` pairs in; what each receiver
        decodes from the wire, as float32, and each frame's size out. A
        scheme may override it to skip the frame objects."""
        results = [context.compress(tensor) for context, tensor in items]
        if any(result is None for result in results):
            raise ValueError(
                f"{self.name!r} deferred a hop transmission; "
                "schedule-changing schemes cannot run on a ring"
            )
        received = [
            np.asarray(self.decompress(result.message), dtype=np.float32)
            for result in results
        ]
        return received, [result.wire_size for result in results]

    def make_bypass_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        """Context for small tensors excluded from lossy compression.

        The small-layer bypass (paper §5.1) skips the *codec*, not the
        transmission schedule: by default small tensors travel as raw
        float32 every step, but schemes that change *when* data is sent
        (N-local-steps) override this so deferral applies to every tensor.
        """
        return _bypass_compressor().make_context(shape, key=key)

    def decompress_bypass(self, message: WireMessage) -> np.ndarray:
        """Decode a bypass message (raw float32 for every scheme)."""
        return _bypass_compressor().decompress(message)

    def make_fused_context(
        self, bucket, *, key: tuple[object, ...] = (), lossy: bool = False
    ):
        """Bucket-aware context: one codec call for a whole bucket.

        The fused-bucket hot path concatenates many small tensors into one
        flat buffer and runs a codec once, paying one frame header instead
        of one per tensor. ``lossy=False`` (the exact mode) runs the raw
        float32 *bypass* codec, so fused transmission is bit-identical to
        per-tensor bypass framing; ``lossy=True`` runs the scheme's own
        codec over the concatenated bucket — one shared quantization scale
        (and one error-feedback buffer) per bucket instead of per tensor.
        Deferring schemes compose either way: the fused context defers the
        entire bucket whenever the inner context defers.
        """
        from repro.compression.fusion import FusedBucketContext

        shape = (bucket.total_elements,)
        inner = (
            self.make_context(shape, key=key)
            if lossy
            else self.make_bypass_context(shape, key=key)
        )
        return FusedBucketContext(bucket, inner)

    def decompress_fused(self, message, *, lossy: bool = False) -> np.ndarray:
        """Decode a fused frame to the flat bucket (one codec call).

        ``lossy`` must match the plan the sender compressed under — it is
        plan-wide, never per-message, so receivers read it off their own
        copy of the :class:`~repro.compression.fusion.FusionPlan`.
        """
        if lossy:
            return self.decompress(message.inner)
        return self.decompress_bypass(message.inner)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name!r})"
