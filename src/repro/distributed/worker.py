"""Worker node: local model replica, gradient computation, push compression.

Each worker (paper §2, Figure 1) holds a full local copy of the model and a
disjoint training-data shard. Per step it runs the forward and backward
passes, compresses the gradients through its push
:class:`~repro.compression.fusion.WireStream` (one compression context per
tensor, paper Figure 2a; small tensors bypass the lossy codec per §5.1, or
share fused buckets when the wire plan has any), and later applies the
decompressed model deltas pulled from the server to its local replica.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.data.augment import Augmenter
from repro.data.batcher import ShardBatcher
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.module import Module

__all__ = ["Worker", "GradientBatch", "RawGradientBatch"]


class GradientBatch:
    """One step's compressed pushes plus local measurements."""

    __slots__ = ("messages", "loss", "compute_seconds", "compress_seconds")

    def __init__(
        self,
        messages: dict[str, WireFrame | None],
        loss: float,
        compute_seconds: float,
        compress_seconds: float,
    ):
        #: The push stream's frames by label (``None``: deferred this step).
        self.messages = messages
        self.loss = loss
        self.compute_seconds = compute_seconds
        self.compress_seconds = compress_seconds


class RawGradientBatch:
    """One step's *uncompressed* gradients (all-reduce topologies compress
    per hop, not per worker, so the worker hands over raw tensors)."""

    __slots__ = ("grads", "loss", "compute_seconds")

    def __init__(
        self, grads: dict[str, np.ndarray], loss: float, compute_seconds: float
    ):
        self.grads = grads
        self.loss = loss
        self.compute_seconds = compute_seconds


class Worker:
    """A simulated worker node.

    Parameters
    ----------
    worker_id:
        Index within the cluster (also the RNG stream key).
    model:
        This worker's model replica (its parameters are mutated by pulls).
    batcher:
        Minibatch stream over the worker's data shard.
    augmenter:
        Training-time augmentation pipeline.
    scheme:
        Compression scheme for gradient pushes; tensors below
        ``SMALL_TENSOR_THRESHOLD`` elements bypass it (paper §5.1).
    fusion_plan:
        The wire plan; its members share per-bucket fused contexts instead
        of individual bypass contexts (no buckets: fusion off).
    push_compression:
        When False the worker builds no push stream at all — used by
        collective topologies (ring all-reduce) where compression happens
        per hop inside the collective and only :meth:`train_step_raw` is
        ever called; skipping context construction avoids allocating a
        full set of model-sized error-feedback buffers per worker.
    """

    def __init__(
        self,
        worker_id: int,
        model: Module,
        batcher: ShardBatcher,
        augmenter: Augmenter,
        scheme: Compressor,
        *,
        fusion_plan: FusionPlan = FusionPlan(),
        push_compression: bool = True,
    ):
        self.worker_id = int(worker_id)
        self.model = model
        self.batcher = batcher
        self.augmenter = augmenter
        self.scheme = scheme
        self.loss_fn = SoftmaxCrossEntropy()
        #: Training loss of the last minibatch (read when a step diverges).
        self.last_loss = 0.0
        self._params = {p.name: p for p in model.parameters()}
        #: Push-side contexts (``None`` without push compression).
        self.stream: WireStream | None = None
        if push_compression:
            self.stream = WireStream(
                scheme,
                {name: param.shape for name, param in self._params.items()},
                threshold=SMALL_TENSOR_THRESHOLD,
                plan=fusion_plan,
                kind="push",
                owner=(self.worker_id,),
            )

    def _forward_backward(self) -> tuple[float, float]:
        """One minibatch forward/backward; returns (loss, compute_seconds)."""
        images, labels = self.batcher.next_batch()
        images = self.augmenter(images)

        t0 = time.perf_counter()
        logits = self.model.forward(images, training=True)
        loss = self.last_loss = self.loss_fn.forward(logits, labels)
        self.model.zero_grad()
        self.model.backward(self.loss_fn.backward())
        return loss, time.perf_counter() - t0

    def train_step(self) -> GradientBatch:
        """Forward/backward on one minibatch, then compress all gradients."""
        if self.stream is None:
            raise RuntimeError(
                "worker was built with push_compression=False; "
                "use train_step_raw()"
            )
        loss, compute_seconds = self._forward_backward()

        t1 = time.perf_counter()
        messages = self.stream.compress(self._gradients())
        compress_seconds = time.perf_counter() - t1
        return GradientBatch(messages, loss, compute_seconds, compress_seconds)

    def _gradients(self) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        for name, param in self._params.items():
            if param.grad is None:
                raise RuntimeError(f"missing gradient for {name}")
            grads[name] = param.grad
        return grads

    def train_step_raw(self) -> RawGradientBatch:
        """Forward/backward only; hand back raw gradients uncompressed.

        Used by topologies where compression is not point-to-point (ring
        all-reduce compresses per hop inside the collective).
        """
        loss, compute_seconds = self._forward_backward()
        return RawGradientBatch(self._gradients(), loss, compute_seconds)

    def apply_pull(self, deltas: dict[str, np.ndarray]) -> float:
        """Apply decompressed model deltas to the local replica.

        Returns the wall-clock seconds spent (decompression time is
        accounted separately by the cluster; this is the apply cost).
        """
        t0 = time.perf_counter()
        for name, delta in deltas.items():
            self._params[name].data += delta
        return time.perf_counter() - t0

    def snapshot_state(self) -> dict:
        """Checkpoint this worker's push-side error-feedback state.

        Residuals are *training state* (every deferred update lives
        there); the fault-recovery layer snapshots them at crash time so
        a restarted worker rejoins without corrupting convergence.
        """
        return self.stream.state_dict()

    def restore_state(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot_state` checkpoint (bit-exact)."""
        self.stream.load_state(snapshot)

    def residual_norms(self) -> dict[str, float]:
        """Push-side error-buffer norms (diagnostics): per tensor, and per
        bucket under ``fused-bucket:<index>``."""
        return {
            label if label in self._params else f"fused-{label}": norm
            for label, norm in self.stream.residual_norms().items()
        }
