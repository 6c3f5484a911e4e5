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

One BSP step is :meth:`ParameterServer.exchange`: :meth:`~ParameterServer.step`
on the accepted pushes, then the shared pull decoded as every worker
decodes it, answered as one :class:`ExchangeOutcome` — the form every
synchronous service of :mod:`repro.exchange` answers in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.nn.optimizer import MomentumSGD
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = ["ParameterServer", "PullBatch", "ExchangeOutcome"]

Frames = dict[str, WireFrame | None]


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


@dataclass
class ExchangeOutcome:
    """One synchronous exchange, as every service answers it: the deltas
    to apply, what went on the wire, and what the codec work cost.

    Collectives follow the ring convention: ``ring_bytes`` is the
    all-links sum, ``link_bytes`` each ring's busiest-single-link bytes
    per tensor (the honest per-channel volume the simulator schedules).
    Point-to-point traffic comes back as the frames themselves.
    """

    #: Model deltas every worker the step reaches applies (``None`` for an
    #: async rack update: the engine compresses per-rack pulls itself).
    deltas: dict[str, np.ndarray] | None
    #: Codec seconds as measured, by ``StepTransmissions`` field (an
    #: absent field is 0).
    codec: dict[str, float]
    #: Point-to-point pushes by sender, in wire order: every worker that
    #: computed (the dropped included), or every up rack's uplink.
    pushes: dict[int, Frames] = field(default_factory=dict)
    #: The shared pull's frames (none after a ring's all-gather).
    pulls: Frames = field(default_factory=dict)
    #: Per ring — the flat ring is ring 0, a rack ring its rack (up racks
    #: first) — tensor -> busiest-hop-link bytes.
    link_bytes: dict[int, dict[str, int]] = field(default_factory=dict)
    ring_bytes: int = 0
    #: Rack-averaged gradients of racks whose uplink was down this step
    #: (fault injection): reduced on the healthy rack fabric but excluded
    #: from the global exchange, for the engine to apply locally and bank.
    down_rack_grads: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


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
        all of the paper's experiments); tensors below
        ``SMALL_TENSOR_THRESHOLD`` elements bypass it (paper §5.1).
    num_workers:
        Worker count, used for gradient averaging.
    fusion_plan:
        The wire plan (must match the plan the workers were built with;
        no buckets: fusion off).
    """

    #: Each codec field's telemetry ``(track, stage)``; track ``worker``
    #: is every worker's own track (work the workers do in parallel).
    STAGES = {
        "push_compress_seconds": ("worker", "compress"),
        "server_decompress_seconds": ("server", "decompress"),
        "server_compress_seconds": ("server", "apply+compress"),
        "pull_decompress_seconds": ("worker", "pull-decompress"),
    }

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer: MomentumSGD,
        schedule: Schedule,
        scheme: Compressor,
        num_workers: int,
        *,
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
            threshold=SMALL_TENSOR_THRESHOLD,
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

    def exchange(self, batches, accepted) -> ExchangeOutcome:
        """One BSP step: :meth:`step` on the ``accepted`` senders' pushes in
        sender-id order — arrival decides only who is accepted, or measured
        compute times would move the model's last bits — then the shared
        pull decoded once, timed.

        ``batches`` maps every sender that pushed — accepted or dropped by
        the barrier — to its push: the ``messages`` and the sender's
        ``compress_seconds`` (the slowest sender's is the step's).
        """
        pull = self.step(
            [batches[sender].messages for sender in sorted(accepted)],
            divisor=len(accepted),
        )
        t0 = time.perf_counter()
        deltas = self.decompress_pulls(pull.messages)
        pull_decompress_seconds = time.perf_counter() - t0
        return ExchangeOutcome(
            deltas,
            dict(
                push_compress_seconds=max(b.compress_seconds for b in batches.values()),
                server_decompress_seconds=pull.decompress_seconds,
                server_compress_seconds=pull.compress_seconds,
                pull_decompress_seconds=pull_decompress_seconds,
            ),
            pushes={sender: batch.messages for sender, batch in batches.items()},
            pulls=pull.messages,
        )

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
