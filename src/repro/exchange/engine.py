"""The unified exchange engine: one trainer, any topology × sync mode.

:class:`ExchangeEngine` runs the paper's point-to-point design and its
alternatives through one loop, parameterized by a topology name (where
state changes travel; :func:`~repro.exchange.topology.build_service`
makes its service) and a sync-mode name (when they travel: ``bsp``,
``async`` or ``ssp``). :class:`EngineConfig` holds every rule on both.
The BSP single-server path is op-for-op identical to the seed trainer (the
parity tests in ``tests/exchange`` assert bit-identical loss trajectories
and wire bytes).

One call of :meth:`ExchangeEngine.train_step` is one *scheduling quantum*
— a full BSP step, or one async/SSP update — and ``train_step`` chooses
only between the two bodies. The one BSP body runs every topology: it
reads compute → barrier → ``service.exchange`` → apply → settle → post →
close, and every synchronous service answers its ``exchange`` with one
:class:`~repro.distributed.server.ExchangeOutcome` (the deltas, what goes
on the wire, the codec seconds). A body hands back the quantum's
:class:`StepLog`, traffic record and plan; ``train_step`` alone finalizes
them (traffic meter, recording, update count, step log). The engine keeps
no telemetry: ``trace_training`` (``telemetry/training.py``) reads the
step logs and traffic records after training. Churn is the
:class:`~repro.distributed.faults.Churn` runtime's, and every outcome is
posted once, by the service's :class:`~repro.exchange.topology.Wire`, to
the quantum's ledger, which feeds the ``StepTraffic`` counters and — when
recording — the columns (one structure row and four numbers per send)
the quantum's plan is built from, for the simulators to replay.

On top of the unified paths sits the **wire plan**
(``fuse_small_tensors=True``, built in :meth:`ExchangeEngine.__init__`):
below-threshold tensors are flattened into capacity-bounded buckets —
partitioned so no bucket spans a shard boundary —
compressed with one codec call per bucket (exact float32 bypass, or the
scheme's own codec with one shared scale under ``fuse_lossy``), and framed
as one :class:`~repro.core.packets.FusedWireMessage` per bucket per
destination. Every sender holds one
:class:`~repro.compression.fusion.WireStream` per direction under that
plan (async/SSP modes add one pull stream per worker or rack), and the
recorded event streams carry the fused frames for the simulators to
replay.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireStream, build_fusion_plan
from repro.data.augment import Augmenter
from repro.data.batcher import ShardBatcher
from repro.data.synthetic import SyntheticImageDataset
from repro.distributed.barriers import BackupWorkerBarrier, FullBarrier, StragglerSpec
from repro.distributed.defaults import FUSION_BUCKET_ELEMENTS, SMALL_TENSOR_THRESHOLD
from repro.distributed.faults import Churn, FaultSpec
from repro.distributed.sharding import shard_owner_map
from repro.distributed.worker import Worker
from repro.exchange.clock import CODEC_RATE, MEASURED, Clock
from repro.exchange.topology import TOPOLOGIES, Wire, build_service
from repro.netsim.events import SkeletonRow, StepTransmissions, UpdateTransmissions
from repro.network.traffic import StepTraffic, TrafficMeter
from repro.nn.loss import SoftmaxCrossEntropy, accuracy
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.optimizer import MomentumSGD
from repro.nn.schedule import Schedule
from repro.utils.seeding import SeedSequenceFactory

__all__ = [
    "SYNC_MODES",
    "EngineConfig",
    "ExchangeEngine",
    "EvalResult",
    "StepLog",
    "scheme_incompatibility",
]


#: Registry of sync-mode names accepted by the engine and the harness.
SYNC_MODES = ("bsp", "async", "ssp")

#: The seed trainers' RNG stream labels (batcher, augmenter) and pull-context
#: key prefix, by ``EngineConfig.synchronous``; keeping them reproduces the
#: seed trajectories exactly.
_STREAM_LABELS = {True: ("batch", "augment", "pull"), False: ("b", "a", "apull")}


def check_count(name: str, value) -> None:
    """Refuse anything but an integer >= 1 (a ``bool`` included), by name."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of a unified exchange engine.

    The cluster-shape attributes mirror the paper's setup (§5.2); the
    ``topology`` / ``sync_mode`` pair selects the exchange plan, and the
    fusion knobs switch on the fused-bucket hot path.
    """

    num_workers: int = 4
    batch_size: int = 32
    shard_size: int = 512
    seed: int = 0
    #: Exchange plan: "single" | "sharded" | "ring" | "hier".
    topology: str = "single"
    #: Synchronization: "bsp" | "async" | "ssp".
    sync_mode: str = "bsp"
    #: Hierarchical topology shape: ``racks`` contiguous racks of
    #: ``rack_size`` workers (must multiply to ``num_workers``); the
    #: cross-rack tier is one parameter server.
    racks: int = 2
    rack_size: int = 2
    #: Backup workers (paper §2.1, BSP only): a global step proceeds once
    #: ``num_workers - backup_workers`` pushes arrive; the rest are dropped.
    backup_workers: int = 0
    #: SSP staleness bound (required for sync_mode="ssp").
    staleness: int | None = None
    #: Server count for the sharded topology.
    num_shards: int = 2
    #: Per-step compute-time jitter / straggler injection (None = uniform).
    straggler: StragglerSpec | None = None
    #: Deterministic churn scenario (worker crashes/restarts/departures
    #: under a parameter service; rack uplink flaps under "hier"). BSP
    #: only: the barrier is where membership changes are decided.
    fault: FaultSpec | None = None
    #: Fused-bucket hot path: pack small tensors into buckets and compress
    #: each bucket with a single codec call. Composes with every
    #: point-to-point topology (partition-aware plans keep buckets inside
    #: shard boundaries) and every sync mode (async/SSP runs per-worker
    #: fused pull streams).
    fuse_small_tensors: bool = False
    #: Bucket capacity in elements for the fusion plan.
    bucket_elements: int = FUSION_BUCKET_ELEMENTS
    #: Lossy fused buckets: run the scheme's own codec once over each
    #: concatenated bucket (one shared quantization scale per bucket)
    #: instead of the exact float32 bypass. Requires ``fuse_small_tensors``.
    fuse_lossy: bool = False
    #: Parameter names that force-close the open fusion bucket before
    #: packing them (per-layer bucket boundaries for the plan tuner).
    bucket_boundaries: tuple[str, ...] = ()
    #: Record transmission plans for the discrete-event network simulator.
    #: BSP steps append per-step plans to ``ExchangeEngine.transmissions``;
    #: async/SSP modes append per-update event streams (push/pull records
    #: with logical timestamps and observed staleness) to
    #: ``ExchangeEngine.update_events``. Off by default.
    record_transmissions: bool = False
    #: Whether the seconds the engine *records* — compute behind virtual
    #: clocks and barrier arrivals, each quantum's codec fields, and so the
    #: engine's spans and counters — are measured (Table-1-class output)
    #: or modeled (a function of the seed: anything diffed, cached or
    #: pinned; async scheduling order no longer follows wall-clock noise).
    clock: Clock = MEASURED

    def __post_init__(self) -> None:
        for name in (
            "num_workers", "batch_size", "shard_size", "backup_workers",
            "bucket_elements", "num_shards", "racks", "rack_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("fuse_small_tensors", "fuse_lossy", "record_transmissions"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name, kind, optional in (
            ("clock", Clock, False),
            ("fault", FaultSpec, True),
            ("straggler", StragglerSpec, True),
        ):
            value = getattr(self, name)
            if not (isinstance(value, kind) or optional and value is None):
                expected = f"a {kind.__name__}" + (" or None" if optional else "")
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        boundaries = self.bucket_boundaries
        if not isinstance(boundaries, tuple) or not all(
            isinstance(name, str) for name in boundaries
        ):
            raise ValueError(
                f"bucket_boundaries must be a tuple of str, got {boundaries!r}"
            )
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.shard_size < self.batch_size:
            raise ValueError("shard_size must be >= batch_size")
        if not (0 <= self.backup_workers < self.num_workers):
            raise ValueError(
                f"backup_workers must be in [0, num_workers={self.num_workers}), "
                f"got {self.backup_workers}"
            )
        if self.bucket_elements < 1:
            raise ValueError("bucket_elements must be >= 1")
        if self.fuse_lossy and not self.fuse_small_tensors:
            raise ValueError(
                "fuse_lossy selects the codec mode of the fused-bucket "
                "path; it requires fuse_small_tensors=True"
            )
        if self.bucket_boundaries and not self.fuse_small_tensors:
            raise ValueError(
                "bucket_boundaries shape the fused-bucket packing; they "
                "require fuse_small_tensors=True"
            )
        # Fusion composes with every sync mode; only the flat ring has no
        # point-to-point framing to fuse.
        if self.fuse_small_tensors and self.topology == "ring":
            raise ValueError(
                "the ring exchanges raw gradients per hop; fused buckets only "
                "apply to point-to-point push/pull framing"
            )
        # Backup workers are a BSP knob, a staleness bound an SSP one.
        mode, staleness = self.sync_mode, self.staleness
        if mode == "bsp":
            if staleness is not None:
                raise ValueError(
                    f"staleness={staleness} only applies to SSP, not 'bsp'"
                )
        elif self.backup_workers:
            raise ValueError(
                f"backup_workers={self.backup_workers} only apply to BSP, "
                f"not {mode!r}"
            )
        elif mode == "async":
            if staleness is not None:
                raise ValueError(
                    f"fully async mode has no staleness bound (got {staleness}); "
                    "use 'ssp'"
                )
        elif mode == "ssp":
            if staleness is None:
                raise ValueError("SSP requires a staleness bound")
            if not isinstance(staleness, numbers.Integral) or isinstance(
                staleness, bool
            ):
                raise ValueError(f"staleness must be an integer, got {staleness!r}")
            if staleness < 0:
                raise ValueError(f"staleness must be >= 0, got {staleness}")
            mode = f"ssp(staleness={staleness})"
        else:
            raise ValueError(
                f"unknown sync mode {mode!r}; expected one of {SYNC_MODES}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.topology == "hier":
            if self.rack_size < 2:
                raise ValueError(
                    "a rack ring needs >= 2 workers, got "
                    f"rack_size={self.rack_size}"
                )
        if self.topology == "ring":
            if not self.synchronous:
                raise ValueError(
                    "topology 'ring' is a synchronous collective; it cannot "
                    f"run under sync mode {mode!r}"
                )
            if self.num_workers < 2:
                raise ValueError(
                    f"a ring needs >= 2 workers, got {self.num_workers}"
                )
        if self.wants_raw_gradients and self.backup_workers:
            raise ValueError(
                "a ring reduction needs every node's chunk; backup workers "
                "only apply to parameter-server topologies"
            )
        if self.topology == "hier":
            if self.racks < 2:
                raise ValueError(
                    "topology 'hier' needs racks >= 2; one rack is "
                    "--topology ring"
                )
            if self.racks * self.rack_size != self.num_workers:
                raise ValueError(
                    f"num_workers={self.num_workers} is not divisible into "
                    f"{self.racks} racks of {self.rack_size} "
                    "(racks * rack_size must equal num_workers)"
                )
        if self.topology == "sharded" and self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        fault = self.fault
        if fault is not None and not fault.empty:
            if self.sync_mode != "bsp":
                raise ValueError(
                    "fault injection is BSP-only (the barrier is where "
                    f"membership changes are decided); got sync_mode="
                    f"{self.sync_mode!r}"
                )
            if fault.crashes and self.topology not in ("single", "sharded"):
                raise ValueError(
                    "worker crash/restart faults need a parameter-service "
                    "topology (single or sharded) — a ring reduction needs "
                    "every node's chunk and a rack ring needs every member; "
                    f"got topology={self.topology!r}"
                )
            for crash in fault.crashes:
                if crash.worker >= self.num_workers:
                    raise ValueError(
                        f"crash worker {crash.worker} out of range for "
                        f"{self.num_workers} workers"
                    )
            if fault.flaps and self.topology != "hier":
                raise ValueError(
                    "uplink flap faults model a rack losing its cross-rack "
                    f"uplink; they require topology='hier', got {self.topology!r}"
                )
            for flap in fault.flaps:
                if flap.rack >= self.racks:
                    raise ValueError(
                        f"flap rack {flap.rack} out of range for {self.racks} racks"
                    )

    @property
    def synchronous(self) -> bool:
        """Lock-step global steps behind a barrier (``bsp``), rather than
        event-driven updates (``async`` / ``ssp``)."""
        return self.sync_mode == "bsp"

    @property
    def wants_raw_gradients(self) -> bool:
        """Workers hand the engine raw gradients: compression happens per
        ring hop (``ring``, and the rack rings of ``hier``)."""
        return self.topology in ("ring", "hier")


def scheme_incompatibility(config: EngineConfig, scheme: Compressor) -> str | None:
    """Why ``scheme`` cannot run under ``config``, or ``None``.

    The one legality rule that needs the scheme; every scheme-free rule is
    ``EngineConfig.__post_init__``'s. A scheme that defers transmissions
    (N local steps) leaves some quanta with nothing on the wire: a ring hop
    must carry a payload for the reduction to proceed, and a recorded
    async/SSP event stream carries a push per update. Plain async/SSP
    training tolerates deferral (updates ride the error buffers).
    """
    if not scheme.defers_transmission:
        return None
    if config.wants_raw_gradients:
        return (
            f"scheme {scheme.name!r} defers transmissions, but topology "
            f"{config.topology!r} reduces over ring hops and every hop must "
            "carry a payload"
        )
    if config.record_transmissions and not config.synchronous:
        return (
            f"scheme {scheme.name!r} defers transmissions, but recording "
            f"{config.sync_mode!r} event streams needs a push every update"
        )
    return None


@dataclass(frozen=True)
class EvalResult:
    """Global-model evaluation snapshot."""

    step: int
    test_accuracy: float
    test_loss: float


@dataclass(frozen=True)
class StepLog:
    """One scheduling quantum as the engine keeps it: its loss and learning
    rate, and what its telemetry reads after training (``trace_training``
    in ``telemetry/training.py``).

    ``codec`` is the quantum's codec seconds by plan field as recorded (a
    modeled clock prices them). A BSP step keeps each computing worker's
    straggler-scaled barrier ``arrivals`` and, under a parameter service,
    its push-compression seconds (``compress``: measured, or the modeled
    push field). An async/SSP update keeps its unit's ``track``, the unit
    clock it ``started`` at and its observed ``staleness``.
    """

    step: int
    train_loss: float
    learning_rate: float
    codec: dict[str, float]
    arrivals: dict[int, float] | None = None
    compress: dict[int, float] | None = None
    track: str | None = None
    started: float = 0.0
    staleness: int | None = None


class _Ledger:
    """One quantum's wire ledger.

    Every message is posted once: :meth:`count` adds it to the
    :class:`~repro.network.traffic.StepTraffic` counters and :meth:`emit`
    — a no-op unless the run records transmissions — appends its
    structure row and its four numbers, the columns :meth:`close` builds
    the quantum's plan from, so the meter and the recording cannot drift
    apart. Collectives are the deliberate exception: the meter takes
    their all-links totals while their records carry one link's bytes
    and frames (the links run in parallel).
    """

    __slots__ = ("traffic", "rows", "numbers", "recording", "clock")

    def __init__(self, traffic: StepTraffic, recording: bool, clock: Clock):
        self.traffic = traffic
        self.recording = recording
        self.clock = clock
        # A modeled clock prices codec work by the recorded elements, so it
        # keeps the columns whether or not the run hands them out.
        self.rows: list[SkeletonRow] | None = [] if recording or clock.modeled else None
        self.numbers: list[int] = []

    def count(self, phase: str, message, main: bool = False) -> None:
        """Add one compressed message to the push or pull counters."""
        traffic = self.traffic
        size, elements = message.wire_size, message.element_count
        if phase == "pull":
            traffic.pull_bytes_shared += size
            traffic.pull_elements += elements
            traffic.pull_messages += 1
            if main:
                traffic.pull_bytes_main += size
                traffic.pull_elements_main += elements
        else:
            traffic.push_bytes += size
            traffic.push_elements += elements
            traffic.push_messages += 1
            if main:
                traffic.push_bytes_main += size
                traffic.push_elements_main += elements

    def emit(
        self, name, params, wire_bytes, elements, route, phase, worker=None,
        copies=1, frames=1, depends_on=(),
    ) -> None:
        """Record one transmission when recording."""
        if self.rows is not None:
            self.rows.append(
                SkeletonRow(name, phase, route, worker, params, depends_on)
            )
            self.numbers += (wire_bytes, elements, copies, frames)

    def post(
        self, phase, name, params, message, route, *, main=False, **routing
    ) -> None:
        """Count one point-to-point message and record it as sent."""
        self.count(phase, message, main)
        self.emit(
            name, params, message.wire_size, message.element_count, route, phase,
            **routing,
        )

    def close(self, plan, compute_seconds: float, codec: dict[str, float], **header):
        """Stamp the quantum's critical-path timing on the traffic record
        and build its ``plan`` (``StepTransmissions`` or
        ``UpdateTransmissions``, whose codec fields ``codec`` names as
        measured) from the columns. Returns ``(plan, codec)``: ``None``
        for the plan when the run does not record, and the codec seconds
        as *recorded* — a modeled clock prices every codec field of the
        plan — for the step log to keep."""
        if self.clock.modeled:
            elements = self.numbers[1::4]
            pull = sum(e for e, row in zip(elements, self.rows) if row.phase == "pull")
            push = sum(elements) - pull
            push_fields, pull_fields = plan.CODEC_FIELDS
            codec = {
                **dict.fromkeys(push_fields, CODEC_RATE * push),
                **dict.fromkeys(pull_fields, CODEC_RATE * pull),
            }
        self.traffic.compute_seconds = compute_seconds
        self.traffic.codec_seconds = sum(codec.values())
        if not self.recording:
            return None, codec
        return plan._of(
            tuple(zip(*self.rows)), self.numbers, compute_seconds=compute_seconds,
            **codec, **header,
        ), codec


class ExchangeEngine:
    """A simulated distributed trainer over pluggable exchange plans.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh model ``Module``. Called
        once per worker plus once for evaluation; every instance must
        produce identical initial parameters (use a fixed seed inside).
    dataset:
        Source of per-worker shards and the held-out test set.
    scheme:
        Compression scheme applied to pushes and pulls (per hop on a ring).
    schedule:
        Learning-rate schedule (already worker-scaled where applicable).
    config:
        Engine shape, topology, sync mode, and hyperparameters.
    """

    def __init__(
        self,
        model_factory,
        dataset: SyntheticImageDataset,
        scheme: Compressor,
        schedule: Schedule,
        config: EngineConfig | None = None,
    ):
        config = config or EngineConfig()
        reason = scheme_incompatibility(config, scheme)
        if reason is not None:
            raise ValueError(reason)
        self.engine_config = config
        self.dataset = dataset
        self.scheme = scheme
        self.seeds = SeedSequenceFactory(config.seed)

        self.synchronous = config.synchronous
        batch_stream, augment_stream, pull_prefix = _STREAM_LABELS[self.synchronous]

        reference_model = model_factory()
        parameters = reference_model.parameters()
        # The wire plan: below-threshold tensors packed into buckets that
        # never span a wire destination — a shard's NIC under "sharded", one
        # destination otherwise; no buckets when fusion is off or no tensor
        # qualifies.
        self.fusion_plan = FusionPlan()
        if config.fuse_small_tensors:
            partition = None
            if config.topology == "sharded":
                sizes = {p.name: p.size for p in parameters}
                partition = shard_owner_map(sizes, config.num_shards).__getitem__
            self.fusion_plan = build_fusion_plan(
                {p.name: p.shape for p in parameters},
                threshold=SMALL_TENSOR_THRESHOLD,
                bucket_elements=config.bucket_elements,
                partition=partition,
                lossy=config.fuse_lossy,
                boundaries=frozenset(config.bucket_boundaries),
            )

        self.workers: list[Worker] = []
        for worker_id in range(config.num_workers):
            model = model_factory()
            # All replicas start from identical weights.
            model.load_state_dict(reference_model.state_dict())
            images, labels = dataset.train_shard(worker_id, config.shard_size)
            batcher = ShardBatcher(
                images,
                labels,
                config.batch_size,
                self.seeds.rng(batch_stream, worker_id),
            )
            augmenter = Augmenter(self.seeds.rng(augment_stream, worker_id))
            self.workers.append(
                Worker(
                    worker_id,
                    model,
                    batcher,
                    augmenter,
                    scheme,
                    fusion_plan=self.fusion_plan,
                    # Collectives compress per hop; skip the (model-sized)
                    # per-worker push-context allocation entirely.
                    push_compression=not config.wants_raw_gradients,
                )
            )

        optimizer = MomentumSGD()
        self.service = build_service(
            config, parameters, optimizer, schedule, scheme, self.fusion_plan
        )
        self._eval_model = model_factory()
        self._model_elements = sum(p.size for p in self.service.params.values())
        self.barrier = None
        if self.synchronous:
            backups = config.backup_workers
            self.barrier = (
                BackupWorkerBarrier(config.num_workers - backups)
                if backups
                else FullBarrier()
            )
        self.traffic = TrafficMeter()
        #: Per-step transmission plans for the network simulator (filled
        #: only when ``record_transmissions`` is on and the mode is BSP).
        self.transmissions: list[StepTransmissions] = []
        #: Per-update event streams for the event-driven simulator (filled
        #: only when ``record_transmissions`` is on and the mode is
        #: async/SSP).
        self.update_events: list[UpdateTransmissions] = []
        self.wire = Wire(self.service)
        self.step_logs: list[StepLog] = []
        self.update_count = 0

        #: The churn runtime (BSP only; validated in EngineConfig) and its
        #: chronological crash / restart / departure / flap / rejoin log.
        self.churn = Churn(config.fault or FaultSpec(), self.workers, self.service)
        self.fault_log: list[dict] = self.churn.log

        # Event-driven state (async / SSP modes). The scheduling unit is
        # one worker — or one *rack* under the hierarchical topology,
        # which is synchronous inside a rack and asynchronous across
        # racks (racks push their ring-reduced aggregate independently).
        if not self.synchronous:
            units = (
                list(range(config.racks))
                if config.topology == "hier"
                else [worker.worker_id for worker in self.workers]
            )
            # Per-unit pull streams: each worker (or rack) pulls its own
            # delta frames, compressed through personal error-feedback
            # contexts.
            shapes = {
                name: param.shape for name, param in self.service.params.items()
            }
            self._pull_streams = {
                unit: WireStream(
                    scheme,
                    shapes,
                    threshold=SMALL_TENSOR_THRESHOLD,
                    plan=self.fusion_plan,
                    kind=pull_prefix,
                    owner=(unit,),
                )
                for unit in units
            }
            # Global state at each unit's last pull: the pull context is
            # fed only the increment since then; its own error buffer
            # carries whatever compression deferred.
            self._last_global = {
                unit: self.service.state_dict() for unit in units
            }
            self._clock = {unit: 0.0 for unit in units}
            self._local_steps = {unit: 0 for unit in units}
            # Global model version each unit last pulled: the commit-time
            # gap to it is the update's observed staleness.
            self._pull_step = {unit: 0 for unit in units}

    # -- properties --------------------------------------------------------

    @property
    def global_step(self) -> int:
        return self.service.global_step

    def _rack_workers(self, rack: int) -> list[Worker]:
        """The contiguous worker group forming one rack."""
        size = self.engine_config.rack_size
        return self.workers[rack * size : (rack + 1) * size]

    # -- training ----------------------------------------------------------

    def train_step(self) -> StepLog:
        """Run one scheduling quantum: a full BSP step, or one async update.

        The strategy does the exchange; everything that observes a
        finished quantum happens here, once.
        """
        body = self._bsp_step if self.synchronous else self._async_update
        log, traffic, transmissions = body()
        if not math.isfinite(log.train_loss):
            raise FloatingPointError(self._divergence(log.step))
        self.traffic.record(traffic)
        if transmissions is not None:
            recorded = self.transmissions if self.synchronous else self.update_events
            recorded.append(transmissions)
        self.update_count += 1
        self.step_logs.append(log)
        return log

    def _divergence(self, step: int) -> str:
        """Name the first worker whose last loss is not finite.

        Losses are non-negative, so a quantum's mean is non-finite exactly
        when one of its workers' is, and a worker that computed in an
        earlier quantum would have raised then.
        """
        worker = next(w for w in self.workers if not math.isfinite(w.last_loss))
        where = f"worker {worker.worker_id}"
        if self.engine_config.topology == "hier":
            rack = worker.worker_id // self.engine_config.rack_size
            where = f"rack {rack} ({where})"
        return (
            f"training loss {worker.last_loss} at step {step} from {where}: "
            "has training diverged?"
        )

    def train(
        self, steps: int, *, eval_every: int | None = None, test_size: int = 1000
    ) -> list[EvalResult]:
        """Run ``steps`` quanta, optionally evaluating along the way."""
        evals: list[EvalResult] = []
        for _ in range(steps):
            self.train_step()
            if eval_every and self.global_step % eval_every == 0:
                evals.append(self.evaluate(test_size=test_size))
        return evals

    def _compute_base(self, batch) -> float:
        """One batch's compute seconds for scheduling, by the clock."""
        clock = self.engine_config.clock
        return clock.compute_seconds if clock.modeled else batch.compute_seconds

    def _arrivals(self, live) -> dict[int, float]:
        """Straggler-scaled push-arrival times of the ``(worker, batch)``
        pairs that computed, for the barrier.

        The multipliers are keyed on the service's *pre-exchange* step:
        call this once per step, before the exchange advances it.
        """
        step = self.service.global_step
        straggler = self.engine_config.straggler
        return {
            worker.worker_id: self._compute_base(batch)
            * (straggler.multiplier(worker.worker_id, step) if straggler else 1.0)
            for worker, batch in live
        }

    def fault_summary(self) -> dict | None:
        """Churn event counts and resync bytes for results archives (None =
        no faults)."""
        return self.churn.summary(sum(s.resync_bytes for s in self.traffic.steps))

    # -- the wire ledger -----------------------------------------------------

    def _open_ledger(self, index: int, pull_fanout: int, num_workers: int) -> _Ledger:
        """A fresh ledger for quantum ``index`` (a step, or an update)."""
        traffic = StepTraffic(
            step=index,
            pull_fanout=pull_fanout,
            num_workers=num_workers,
            model_elements=self._model_elements,
        )
        config = self.engine_config
        return _Ledger(traffic, config.record_transmissions, config.clock)

    # -- synchronous strategies (BSP) ----------------------------------------

    def _bsp_step(self) -> tuple[StepLog, StepTraffic, StepTransmissions | None]:
        """One BSP step against any synchronous service."""
        step = self.service.global_step
        raw = self.engine_config.wants_raw_gradients
        # Crashes due this step take their worker out before compute;
        # rejoins resync from the pre-step global model and compute.
        live = self.churn.live_workers(step)
        if not live:
            raise RuntimeError(f"step {step}: no live workers remain")
        batches = {
            worker.worker_id: worker.train_step_raw() if raw else worker.train_step()
            for worker in live
        }

        # Barrier: decide whose pushes enter aggregation. Straggler-scaled
        # compute time determines arrival order; dropped pushes were still
        # transmitted (they consumed bandwidth) but are discarded. Racks
        # cut off from the core ring-reduce but do not cross; a rejoining
        # rack catches up.
        arrivals = self._arrivals(zip(live, batches.values()))
        decision = self.churn.decide(self.barrier, arrivals)
        outcome = self.service.exchange(
            batches, decision.accepted, **self.churn.cut_racks(step)
        )
        lr = self.service.schedule(step)
        reached = self.churn.reached(live)
        for worker in reached:
            worker.apply_pull(outcome.deltas)
        self.churn.settle(outcome, lr)

        # Every reached worker receives one physical copy of each shared
        # pull (a ring's all-gather already fanned out).
        ledger = self._open_ledger(
            step, pull_fanout=len(reached) if outcome.pulls else 0,
            num_workers=len(live),
        )
        self.wire.post_exchange(ledger, outcome)
        link_down = self.churn.post(ledger, self.wire)
        ledger.traffic.dropped_pushes = len(decision.dropped)
        # Workers run in parallel: the barrier charges the slowest worker it
        # actually waited for (straggler-scaled; backup workers excluded),
        # and the outcome the codec work on the critical path.
        transmissions, codec = ledger.close(
            StepTransmissions,
            decision.compute_seconds,
            outcome.codec,
            step=step,
            link_down=link_down,
        )
        compress = None
        if not raw:
            modeled = self.engine_config.clock.modeled
            compress = {
                wid: codec["push_compress_seconds"] if modeled else b.compress_seconds
                for wid, b in batches.items()
            }
        log = StepLog(
            step,
            float(np.mean([batch.loss for batch in batches.values()])),
            lr,
            codec,
            arrivals=arrivals,
            compress=compress,
        )
        return log, ledger.traffic, transmissions

    # -- event-driven strategies (async / SSP) -------------------------------

    def _next_unit(self) -> int:
        # SSP: a unit may run while it leads the slowest by <= staleness.
        bound = self.engine_config.staleness
        slowest = min(self._local_steps.values())
        eligible = [
            unit
            for unit, k in self._local_steps.items()
            if bound is None or k - slowest <= bound
        ]
        return min(eligible, key=lambda unit: (self._clock[unit], unit))

    def _commit_compute(self, unit: int, workers, batches) -> tuple[int, float, float]:
        """Advance ``unit``'s virtual clock past this update's compute.

        The unit commits when its slowest member finishes. Returns its
        local step index, the compute seconds, and the clock it started at.
        """
        local_step = self._local_steps[unit]
        straggler = self.engine_config.straggler
        compute_seconds = max(
            self._compute_base(batch)
            * (
                straggler.multiplier(worker.worker_id, local_step)
                if straggler
                else 1.0
            )
            for worker, batch in zip(workers, batches)
        )
        started = self._clock[unit]
        self._clock[unit] += compute_seconds
        self._local_steps[unit] += 1
        return local_step, compute_seconds, started

    def _individual_pull(self, unit: int):
        """Compress ``unit``'s personal delta stream since its last pull.

        Each tensor's increment ``global - unit_view`` goes through the
        unit's own pull stream (whatever compression defers rides its
        error-feedback buffers). Returns the reconstructed deltas the unit
        applies, the pull frames by label, and the compression seconds.
        """
        last = self._last_global[unit]
        t0 = time.perf_counter()
        increments: dict[str, np.ndarray] = {}
        for name, param in self.service.params.items():
            increments[name] = param.data - last[name]
            last[name] = param.data.copy()
        messages = self._pull_streams[unit].compress(increments)
        deltas: dict[str, np.ndarray] = {}
        for frame in messages.values():
            if frame is not None:  # a deferred frame rides its buffer
                deltas.update(frame.parts)
        seconds = time.perf_counter() - t0
        self._pull_step[unit] = self.service.global_step
        return deltas, messages, seconds

    def _async_update(self) -> tuple[StepLog, StepTraffic, UpdateTransmissions | None]:
        """One unit's asynchronous update against the service.

        The unit is a worker, or a rack under ``hier``: the rack steps
        synchronously (ring all-reduce over its members), then exchanges
        with the cross-rack service on its own clock — intra-rack BSP,
        inter-rack async/SSP, with staleness observed at rack granularity.
        """
        unit = self._next_unit()
        hier = self.engine_config.topology == "hier"
        workers = self._rack_workers(unit) if hier else [self.workers[unit]]
        batches = [w.train_step_raw() if hier else w.train_step() for w in workers]
        local_step, compute_seconds, started = self._commit_compute(
            unit, workers, batches
        )

        # The service applies this unit's (stale) gradient immediately.
        step = self.service.global_step
        staleness = step - self._pull_step[unit]
        if hier:
            outcome = self.service.rack_exchange(unit, batches)
            push_seconds = outcome.codec["push_compress_seconds"]
            server_seconds = outcome.codec["server_decompress_seconds"]
        else:
            pull_batch = self.service.step([batches[0].messages], divisor=1)
            push_seconds = batches[0].compress_seconds
            server_seconds = pull_batch.decompress_seconds
        deltas, pulls, pull_compress_seconds = self._individual_pull(unit)
        for worker in workers:
            worker.apply_pull(deltas)

        # One physical pull copy per member: a rack's crosses the uplink
        # once and circulates the rack ring, like any shared delta.
        ledger = self._open_ledger(
            self.update_count, pull_fanout=len(workers), num_workers=len(workers)
        )
        if hier:
            self.wire.post_exchange(ledger, outcome)
            self.wire.post_hier_pull(ledger, pulls, (unit,), unit=unit)
        else:
            self.wire.post(ledger, "push", batches[0].messages, worker=unit)
            self.wire.post(ledger, "pull", pulls, worker=unit)
        # Honest per-update accounting: this scheduling quantum computed on
        # one unit and serialized one apply on the server (the discarded
        # shared-pull compression stays uncharged).
        transmissions, codec = ledger.close(
            UpdateTransmissions,
            compute_seconds,
            dict(
                push_compress_seconds=push_seconds,
                server_seconds=server_seconds,
                pull_compress_seconds=pull_compress_seconds,
                # The unit applies the compression result's reconstruction
                # directly: there is no decode to measure.
                pull_decompress_seconds=0.0,
            ),
            update=self.update_count,
            worker=unit,
            local_step=local_step,
            global_step=step,
            staleness=staleness,
            clock_seconds=self._clock[unit],
        )
        log = StepLog(
            step,
            float(np.mean([b.loss for b in batches])),
            self.service.schedule(step),
            codec,
            track=self.wire.unit_name(unit),
            started=started,
            staleness=staleness,
        )
        return log, ledger.traffic, transmissions

    def max_staleness_observed(self) -> int:
        """Largest local-step lead any worker currently holds (async/SSP)."""
        if self.synchronous:
            return 0
        steps = self._local_steps.values()
        return max(steps) - min(steps)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, *, test_size: int = 1000) -> EvalResult:
        """Evaluate the *global* model on the held-out test set.

        Batch-norm running statistics come from worker 0's replica — the
        paper makes one worker responsible for batch-norm updates (§5.2).
        """
        check_count("test_size", test_size)
        self._eval_model.load_state_dict(self.service.state_dict())
        self._sync_bn_stats(self.workers[0].model, self._eval_model)
        images, labels = self.dataset.test_set(test_size)
        logits = self._eval_model.forward(images, training=False)
        loss = SoftmaxCrossEntropy().forward(logits, labels)
        return EvalResult(
            step=self.global_step,
            test_accuracy=accuracy(logits, labels),
            test_loss=loss,
        )

    @staticmethod
    def _sync_bn_stats(source: Module, target: Module) -> None:
        src_bns = [m for m in source.iter_modules() if isinstance(m, BatchNorm2d)]
        dst_bns = [m for m in target.iter_modules() if isinstance(m, BatchNorm2d)]
        if len(src_bns) != len(dst_bns):
            raise RuntimeError("model topology mismatch between replicas")
        for src, dst in zip(src_bns, dst_bns):
            dst.load_stats(src.stats_dict())

    def model_divergence(self) -> float:
        """Max L2 distance between any worker replica and the global model.

        Lossy pull compression lets replicas drift; error feedback should
        keep this bounded. Exposed for tests and diagnostics.
        """
        global_state = self.service.state_dict()
        worst = 0.0
        for worker in self.workers:
            local = worker.model.state_dict()
            dist = float(
                np.sqrt(
                    sum(
                        np.sum((local[k] - global_state[k]) ** 2)
                        for k in global_state
                    )
                )
            )
            worst = max(worst, dist)
        return worst
