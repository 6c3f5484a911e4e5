"""Parameter server: aggregation, global model update, shared pull compression.

The server (paper §2) stores the global model, averages decompressed
gradient pushes from all workers, applies the update with the global
optimizer (momentum SGD + LR schedule), and compresses the resulting model
deltas *once*, sharing the compressed copy among all workers — 3LC's pull
optimization (paper §3, Figure 2b): "the servers compress model deltas and
make a shared local copy of the compressed model deltas".

Pull compression runs through the server's
:class:`~repro.compression.fusion.WireStream`: one context per frame whose
error-accumulation buffer carries deltas that quantization deferred;
workers therefore converge to the global model over time rather than
instantaneously, which is exactly the behaviour the paper's design accepts
and evaluates. Decoding is stateless and depends only on the frame layout,
so the same stream decodes the workers' pushes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.nn.optimizer import MomentumSGD
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = ["ParameterServer", "PullBatch"]


class PullBatch:
    """One step's shared compressed model deltas plus server measurements."""

    __slots__ = ("messages", "decompress_seconds", "compress_seconds")

    def __init__(
        self,
        messages: dict[str, WireFrame | None],
        decompress_seconds: float,
        compress_seconds: float,
    ):
        #: The pull stream's frames by label (``None``: deferred this step).
        self.messages = messages
        self.decompress_seconds = decompress_seconds
        self.compress_seconds = compress_seconds


class ParameterServer:
    """The (single) simulated parameter-server node.

    Parameters
    ----------
    parameters:
        Initial global model parameters (cloned; the server owns its copy).
    optimizer:
        Global optimizer applied to aggregated gradients.
    schedule:
        Learning-rate schedule indexed by global step.
    scheme:
        Compression scheme for model-delta pulls (same scheme as pushes in
        all of the paper's experiments).
    num_workers:
        Worker count, used for gradient averaging.
    small_tensor_threshold:
        Tensors below this many elements bypass compression.
    fusion_plan:
        The wire plan (must match the plan the workers were built with;
        no buckets: fusion off).
    """

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer: MomentumSGD,
        schedule: Schedule,
        scheme: Compressor,
        num_workers: int,
        *,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers!r}")
        self.optimizer = optimizer
        self.schedule = schedule
        self.scheme = scheme
        self.num_workers = int(num_workers)
        # The server's own Parameter copies; grads are filled by aggregation.
        self.params: dict[str, Parameter] = {
            p.name: Parameter(p.name, p.data.copy(), weight_decay=p.weight_decay)
            for p in parameters
        }
        #: Shared pull contexts; also the layout pushes are decoded under.
        self.stream = WireStream(
            scheme,
            {name: param.shape for name, param in self.params.items()},
            threshold=small_tensor_threshold,
            plan=fusion_plan,
            kind="pull",
        )
        self.bypassed = self.stream.bypassed
        self.global_step = 0

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of the global model (the paper's accuracy-measurement
        node reads exactly this)."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def step(
        self,
        pushes: list[dict[str, WireFrame | None]],
        divisor: int | None = None,
    ) -> PullBatch:
        """Run one global step: aggregate, update, compress shared pulls.

        Parameters
        ----------
        pushes:
            One frame mapping per *participating* worker, holding exactly
            the frames the wire plan expects (anything else raises a
            ``ValueError`` naming the frames and the push's position).
            ``None`` entries mean the worker deferred that frame this step
            (local-steps scheme). Under a backup-worker barrier the cluster
            passes only the accepted subset.
        divisor:
            Gradient-averaging denominator. Defaults to the configured
            worker count (vanilla BSP); the backup-worker barrier passes
            the accepted count, matching SyncReplicasOptimizer.
        """
        if not (1 <= len(pushes) <= self.num_workers):
            raise ValueError(
                f"expected 1..{self.num_workers} pushes, got {len(pushes)}"
            )
        if divisor is None:
            divisor = self.num_workers
        if divisor < 1:
            raise ValueError("divisor must be >= 1")
        # -- gradient aggregation (decompression measured) ------------------
        t0 = time.perf_counter()
        totals: dict[str, np.ndarray] = {}
        for position, push in enumerate(pushes):
            grads = self.stream.decompress(push, sender=position)
            for name, grad in grads.items():
                total = totals.get(name)
                totals[name] = grad.copy() if total is None else total + grad
        # Average over the divisor: deferring workers contribute zero this
        # step (their update arrives later via their error buffers).
        aggregated = {
            name: totals[name] / divisor for name in self.params if name in totals
        }
        decompress_seconds = time.perf_counter() - t0

        # -- model update ----------------------------------------------------
        lr = self.schedule(self.global_step)
        previous = {name: self.params[name].data.copy() for name in aggregated}
        if aggregated:
            updated = [self.params[name] for name in aggregated]
            for param in updated:
                param.grad = aggregated[param.name]
            self.optimizer.step(updated, lr)
            for param in updated:
                param.grad = None
        self.global_step += 1

        # -- shared pull compression ------------------------------------------
        t1 = time.perf_counter()
        messages = self.stream.compress(
            {
                name: (
                    param.data - previous[name]
                    if name in aggregated
                    else np.zeros(param.shape, dtype=np.float32)
                )
                for name, param in self.params.items()
            }
        )
        compress_seconds = time.perf_counter() - t1
        return PullBatch(messages, decompress_seconds, compress_seconds)

    def decompress_pulls(self, messages) -> dict[str, np.ndarray]:
        """Decode one step's shared pull frames into named deltas (worker
        side calls this), frame by frame through the two decoders below."""
        return self.stream.decompress(
            messages,
            decode_tensor=self.decompress_pull,
            decode_bucket=self.decompress_fused_pull,
        )

    def decompress_pull(self, name: str, message) -> np.ndarray:
        """Decode one per-tensor pull message."""
        return self.stream.decode_tensor(name, message)

    def decompress_fused_pull(self, index: int, message) -> dict[str, np.ndarray]:
        """Decode one fused pull bucket into named deltas (one codec call)."""
        return self.stream.decode_bucket(index, message)
