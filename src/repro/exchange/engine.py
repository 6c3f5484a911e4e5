"""The unified exchange engine: one trainer, any topology × sync mode.

:class:`ExchangeEngine` runs the paper's point-to-point design and its
alternatives through one loop, parameterized by a topology name (where
state changes travel; :func:`~repro.exchange.topology.build_service`
makes its service) and a :class:`~repro.exchange.sync.SyncMode` (when
they travel). :class:`EngineConfig` holds every rule on both. The BSP
single-server path is op-for-op identical to the seed trainer (the
parity tests in ``tests/exchange`` assert bit-identical loss trajectories
and wire bytes).

One call of :meth:`ExchangeEngine.train_step` is one *scheduling quantum*
— a full BSP step, or one async/SSP update. Five strategies (parameter
service / ring / hierarchical, each BSP; worker / rack, each event-driven)
do the exchange and hand back a single quantum value; ``train_step`` alone
finalizes it (traffic meter, recording, update count, telemetry, step
log). Inside a strategy every wire message is *posted once* to the
quantum's ledger, which feeds the ``StepTraffic`` counters and — when
recording — the ``TransmissionRecord`` stream the simulators replay from
the same values.

On top of the unified paths sits the **wire plan**
(``fuse_small_tensors=True``, built in :meth:`ExchangeEngine.__init__`):
below-threshold tensors are flattened into capacity-bounded buckets —
partitioned so no bucket spans a shard or rack-uplink boundary —
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
from repro.distributed.barriers import FullBarrier, StragglerSpec
from repro.distributed.defaults import FUSION_BUCKET_ELEMENTS, SMALL_TENSOR_THRESHOLD
from repro.distributed.faults import FaultSpec
from repro.distributed.sharding import shard_owner_map
from repro.distributed.worker import Worker
from repro.exchange.clock import CODEC_RATE, MEASURED, Clock
from repro.exchange.sync import SyncMode, make_sync_mode
from repro.exchange.topology import TOPOLOGIES, build_service, transmission_routes
from repro.netsim.events import (
    StepTransmissions,
    TransmissionRecord,
    UpdateTransmissions,
)
from repro.network.traffic import StepTraffic, TrafficMeter
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.nn.loss import SoftmaxCrossEntropy, accuracy
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.optimizer import MomentumSGD
from repro.nn.schedule import Schedule
from repro.utils.seeding import SeedSequenceFactory

__all__ = [
    "EngineConfig",
    "ExchangeEngine",
    "EvalResult",
    "StepLog",
    "scheme_incompatibility",
]


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
    momentum: float = 0.9
    weight_decay: float = 1e-4
    small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD
    augment_pad: int = 2
    seed: int = 0
    #: Exchange plan: "single" | "sharded" | "ring" | "hier".
    topology: str = "single"
    #: Synchronization: "bsp" | "async" | "ssp".
    sync_mode: str = "bsp"
    #: Hierarchical topology shape: ``racks`` contiguous racks of
    #: ``rack_size`` workers (must multiply to ``num_workers``); the
    #: cross-rack tier reuses the single-server or sharded service.
    racks: int = 2
    rack_size: int = 2
    hier_upper: str = "single"
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
    #: shard and rack-uplink boundaries) and every sync mode (async/SSP
    #: runs per-worker fused pull streams).
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
    #: clocks and barrier arrivals, each quantum's codec fields, engine
    #: spans and counters — are measured (Table-1-class output) or modeled
    #: (a function of the seed: anything diffed, cached or pinned; async
    #: scheduling order no longer follows wall-clock noise).
    clock: Clock = MEASURED

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.shard_size < self.batch_size:
            raise ValueError("shard_size must be >= batch_size")
        if not (0 <= self.backup_workers < self.num_workers):
            raise ValueError("backup_workers must be in [0, num_workers)")
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
        # The sync registry owns its per-knob rules (unknown name, staleness
        # vs mode); building it here is pure.
        sync = self.make_sync()
        for name in ("num_shards", "racks", "rack_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
            if self.hier_upper not in ("single", "sharded"):
                raise ValueError(
                    f"unknown upper tier {self.hier_upper!r}; expected "
                    "'single' or 'sharded'"
                )
        if self.topology == "ring":
            if not sync.synchronous:
                raise ValueError(
                    "topology 'ring' is a synchronous collective; it cannot "
                    f"run under sync mode {sync.name!r}"
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
        if self.wire_destination == "sharded" and self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.fault is not None and not self.fault.empty:
            if self.sync_mode != "bsp":
                raise ValueError(
                    "fault injection is BSP-only (the barrier is where "
                    f"membership changes are decided); got sync_mode="
                    f"{self.sync_mode!r}"
                )
            if self.fault.crashes:
                if self.topology not in ("single", "sharded"):
                    raise ValueError(
                        "worker crash/restart faults need a parameter-"
                        "service topology (single or sharded) — a ring "
                        "reduction needs every node's chunk and a rack "
                        "ring needs every member; got topology="
                        f"{self.topology!r}"
                    )
                for crash in self.fault.crashes:
                    if crash.worker >= self.num_workers:
                        raise ValueError(
                            f"crash worker {crash.worker} out of range for "
                            f"{self.num_workers} workers"
                        )
            if self.fault.flaps:
                if self.topology != "hier":
                    raise ValueError(
                        "uplink flap faults model a rack losing its cross-"
                        "rack uplink; they require topology='hier', got "
                        f"{self.topology!r}"
                    )
                for flap in self.fault.flaps:
                    if flap.rack >= self.racks:
                        raise ValueError(
                            f"flap rack {flap.rack} out of range for "
                            f"{self.racks} racks"
                        )

    def make_sync(self) -> SyncMode:
        """The sync mode this configuration selects."""
        return make_sync_mode(
            self.sync_mode,
            backup_workers=self.backup_workers,
            staleness=self.staleness,
        )

    @property
    def wants_raw_gradients(self) -> bool:
        """Workers hand the engine raw gradients: compression happens per
        ring hop (``ring``, and the rack rings of ``hier``)."""
        return self.topology in ("ring", "hier")

    @property
    def wire_destination(self) -> str:
        """The service point-to-point frames travel to: the upper tier
        under ``hier``, the topology itself otherwise."""
        return self.hier_upper if self.topology == "hier" else self.topology


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
    if config.record_transmissions and not config.make_sync().synchronous:
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


@dataclass
class StepLog:
    """Per-step training telemetry."""

    step: int
    train_loss: float
    learning_rate: float


#: ``(push-side, pull-side)`` codec fields of each recorded plan: under a
#: modeled clock a field costs the per-element rate times the elements
#: recorded on its side of the wire.
_CODEC_FIELDS = {
    StepTransmissions: (
        ("push_compress_seconds", "server_decompress_seconds"),
        ("server_compress_seconds", "pull_decompress_seconds"),
    ),
    UpdateTransmissions: (
        ("push_compress_seconds", "server_seconds"),
        ("pull_compress_seconds", "pull_decompress_seconds"),
    ),
}


class _Ledger:
    """One quantum's wire ledger.

    Every message is posted once: :meth:`count` adds it to the
    :class:`~repro.network.traffic.StepTraffic` counters and :meth:`emit`
    — a no-op unless the run records transmissions — appends the
    :class:`~repro.netsim.events.TransmissionRecord` the simulators
    replay, so the meter and the recording cannot drift apart.
    Collectives are the deliberate exception: the meter takes their
    all-links totals while their records carry one link's bytes and
    frames (the links run in parallel).
    """

    __slots__ = ("traffic", "records", "recording", "clock")

    def __init__(self, traffic: StepTraffic, recording: bool, clock: Clock):
        self.traffic = traffic
        self.recording = recording
        self.clock = clock
        # A modeled clock prices codec work by the recorded elements, so it
        # keeps the records whether or not the run hands them out.
        self.records: list[TransmissionRecord] | None = (
            [] if recording or clock.modeled else None
        )

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
        self, name, params, wire_bytes, elements, route, phase, **routing
    ) -> None:
        """Record one transmission (``routing``: worker / copies / frames /
        depends_on) when recording."""
        if self.records is not None:
            self.records.append(
                TransmissionRecord(
                    name=name,
                    params=params,
                    wire_bytes=wire_bytes,
                    elements=elements,
                    route=route,
                    phase=phase,
                    **routing,
                )
            )

    def post(
        self, phase, name, params, message, route, *, main=False, **routing
    ) -> None:
        """Count one point-to-point message and record it as sent."""
        self.count(phase, message, main)
        if self.records is not None:
            self.emit(
                name, params, message.wire_size, message.element_count, route,
                phase, **routing,
            )

    def close(self, plan, compute_seconds: float, codec: dict[str, float], **header):
        """Stamp the quantum's critical-path timing on the traffic record
        and wrap the records in their ``plan`` (``StepTransmissions`` or
        ``UpdateTransmissions``, whose codec fields ``codec`` names as
        measured). Returns ``(plan, codec)``: ``None`` for the plan when
        the run does not record, and the codec seconds as *recorded* — a
        modeled clock prices every codec field of the plan — for the
        telemetry layout to share."""
        if self.clock.modeled:
            pull = sum(r.elements for r in self.records if r.phase == "pull")
            push = sum(r.elements for r in self.records) - pull
            push_fields, pull_fields = _CODEC_FIELDS[plan]
            codec = {
                **dict.fromkeys(push_fields, CODEC_RATE * push),
                **dict.fromkeys(pull_fields, CODEC_RATE * pull),
            }
        self.traffic.compute_seconds = compute_seconds
        self.traffic.codec_seconds = sum(codec.values())
        if not self.recording:
            return None, codec
        recorded = plan(
            compute_seconds=compute_seconds,
            records=tuple(self.records),
            **codec,
            **header,
        )
        return recorded, codec


@dataclass
class _Quantum:
    """What a strategy hands :meth:`ExchangeEngine.train_step`."""

    #: Global model version the quantum was applied at.
    step: int
    loss: float
    lr: float
    traffic: StepTraffic
    #: The recorded plan (``None`` when the run does not record).
    transmissions: StepTransmissions | UpdateTransmissions | None
    #: Keyword arguments of the sync family's telemetry emitter.
    layout: dict


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
        *,
        telemetry: Telemetry | None = None,
    ):
        config = config or EngineConfig()
        reason = scheme_incompatibility(config, scheme)
        if reason is not None:
            raise ValueError(reason)
        self.engine_config = config
        self.dataset = dataset
        self.scheme = scheme
        self.seeds = SeedSequenceFactory(config.seed)
        #: Telemetry session (metrics + spans); the shared disabled
        #: singleton when None, so hot paths gate on one bool.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Virtual clock laying synchronous steps end to end on the
        # telemetry timeline (async modes reuse the per-unit clocks).
        self._tel_clock = 0.0

        self.sync: SyncMode = config.make_sync()

        reference_model = model_factory()
        parameters = reference_model.parameters()
        # The wire plan: below-threshold tensors packed into buckets that
        # never span a wire destination — a shard's NIC when frames go to a
        # sharded service (flat, or the upper tier under "hier"), one
        # destination otherwise; no buckets when fusion is off or no tensor
        # qualifies.
        self.fusion_plan = FusionPlan()
        if config.fuse_small_tensors:
            partition = None
            if config.wire_destination == "sharded":
                sizes = {p.name: p.size for p in parameters}
                partition = shard_owner_map(sizes, config.num_shards).__getitem__
            self.fusion_plan = build_fusion_plan(
                {p.name: p.shape for p in parameters},
                threshold=config.small_tensor_threshold,
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
                self.seeds.rng(self.sync.batch_stream, worker_id),
            )
            augmenter = Augmenter(
                self.seeds.rng(self.sync.augment_stream, worker_id),
                pad=config.augment_pad,
            )
            self.workers.append(
                Worker(
                    worker_id,
                    model,
                    batcher,
                    augmenter,
                    scheme,
                    small_tensor_threshold=config.small_tensor_threshold,
                    fusion_plan=self.fusion_plan,
                    # Collectives compress per hop; skip the (model-sized)
                    # per-worker push-context allocation entirely.
                    push_compression=not config.wants_raw_gradients,
                )
            )

        def optimizer_factory() -> MomentumSGD:
            return MomentumSGD(config.momentum, config.weight_decay)

        self.service = build_service(
            config, parameters, optimizer_factory, schedule, scheme, self.fusion_plan
        )
        self._eval_model = model_factory()
        self._model_elements = sum(p.size for p in self.service.params.values())
        self.barrier = (
            self.sync.make_barrier(config.num_workers)
            if self.sync.synchronous
            else None
        )
        self.traffic = TrafficMeter()
        #: Per-step transmission plans for the network simulator (filled
        #: only when ``record_transmissions`` is on and the mode is BSP).
        self.transmissions: list[StepTransmissions] = []
        #: Per-update event streams for the event-driven simulator (filled
        #: only when ``record_transmissions`` is on and the mode is
        #: async/SSP).
        self.update_events: list[UpdateTransmissions] = []
        self._routes: dict[str, str] = transmission_routes(self.service)
        self.step_logs: list[StepLog] = []
        self.update_count = 0

        # -- fault-injection state (BSP only; validated in EngineConfig) ----
        fault = config.fault
        self._fault = fault if fault is not None and not fault.empty else None
        #: Chronological churn events: crash / restart / departure / flap /
        #: rejoin dicts, each tagged with the step it happened at.
        self.fault_log: list[dict] = []
        # Worker churn: wid -> step it may rejoin at; entries present mean
        # the worker is down *this* step once `_apply_worker_faults` ran.
        self._down_until: dict[int, int] = {}
        self._departed: set[int] = set()
        self._restart_counts: dict[int, int] = {}
        # Crash-time error-feedback checkpoints, restored on rejoin.
        self._checkpoints: dict[int, dict] = {}
        self._pristine: dict[int, dict] = {}
        # Rack churn (hier): rack -> rejoin step, banked outage gradients,
        # and the rejoin step's link-down floor.
        self._rack_down_until: dict[int, int] = {}
        self._rack_backlog: dict[int, dict[str, np.ndarray]] = {}
        self._rack_rejoin_delay: dict[int, float] = {}
        self._degraded_steps = 0
        if self._fault is not None:
            for crash in self._fault.crashes:
                if crash.worker not in self._pristine:
                    # Zero-residual snapshot taken at init: a crash wipes
                    # the worker's in-memory error feedback, so its live
                    # contexts reset to this until recovery restores the
                    # crash-time checkpoint.
                    self._pristine[crash.worker] = self.workers[
                        crash.worker
                    ].snapshot_state()

        # Event-driven state (async / SSP modes). The scheduling unit is
        # one worker — or one *rack* under the hierarchical topology,
        # which is synchronous inside a rack and asynchronous across
        # racks (racks push their ring-reduced aggregate independently).
        if not self.sync.synchronous:
            prefix = self.sync.pull_key_prefix
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
                    threshold=config.small_tensor_threshold,
                    plan=self.fusion_plan,
                    kind=prefix,
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
        topology = self.engine_config.topology
        if not self.sync.synchronous:
            quantum = (
                self._hier_async_update()
                if topology == "hier"
                else self._async_update()
            )
        elif topology == "hier":
            quantum = self._hier_step()
        elif topology == "ring":
            quantum = self._ring_step()
        else:
            quantum = self._ps_step()
        if not math.isfinite(quantum.loss):
            raise FloatingPointError(self._divergence(quantum.step))
        self.traffic.record(quantum.traffic)
        if quantum.transmissions is not None:
            recorded = (
                self.transmissions if self.sync.synchronous else self.update_events
            )
            recorded.append(quantum.transmissions)
        self.update_count += 1
        if self.telemetry.enabled:
            emit = (
                self._tel_bsp_step
                if self.sync.synchronous
                else self._tel_async_update
            )
            emit(quantum, **quantum.layout)
        log = StepLog(
            step=quantum.step, train_loss=quantum.loss, learning_rate=quantum.lr
        )
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

    def _arrivals(self, batches) -> dict[int, float]:
        """Straggler-scaled push-arrival times for the barrier.

        Down/departed workers carry a ``None`` batch (fault injection)
        and never arrive; with no faults every batch is present. The
        multipliers are keyed on the service's *pre-exchange* step: call
        this once per step, before the exchange advances it.
        """
        step = self.service.global_step
        straggler = self.engine_config.straggler
        return {
            worker.worker_id: self._compute_base(batches[i])
            * (straggler.multiplier(worker.worker_id, step) if straggler else 1.0)
            for i, worker in enumerate(self.workers)
            if batches[i] is not None
        }

    # -- fault injection ---------------------------------------------------

    def _barrier_decide(self, arrivals: dict[int, float]):
        """Barrier decision tolerant of a fault-shrunk arrival set.

        A backup-worker barrier demands ``num_workers - backup_workers``
        arrivals; when churn leaves fewer live workers the step degrades
        to waiting for everyone still alive instead of deadlocking.
        """
        required = getattr(self.barrier, "required", None)
        if required is not None and len(arrivals) < required:
            return FullBarrier().decide(arrivals)
        return self.barrier.decide(arrivals)

    def _apply_worker_faults(self, step: int) -> list[int]:
        """Process crash/restart events due at ``step``.

        Returns the workers rejoining this step with a full-model resync
        (checkpointed recovery only — the naive baseline restarts with a
        stale replica and transfers nothing).
        """
        resynced: list[int] = []
        fault = self._fault
        if fault is None:
            return resynced
        for worker in self.workers:
            wid = worker.worker_id
            if wid in self._departed:
                continue
            crash = fault.crash_at(wid, step)
            if crash is not None:
                self._crash_worker(worker, crash, step)
            elif wid in self._down_until and step >= self._down_until[wid]:
                del self._down_until[wid]
                if self._recover_worker(worker, step):
                    resynced.append(wid)
        return resynced

    def _crash_worker(self, worker: Worker, crash, step: int) -> None:
        wid = worker.worker_id
        count = self._restart_counts.get(wid, 0) + 1
        self._restart_counts[wid] = count
        # Checkpoint the push-side error feedback *at crash time* — the
        # state a recovery protocol would have persisted — then wipe the
        # live contexts: an in-memory crash loses them either way.
        self._checkpoints[wid] = worker.snapshot_state()
        worker.restore_state(self._pristine[wid])
        self.fault_log.append({"event": "crash", "step": step, "worker": wid})
        if crash.depart or count > self._fault.max_restarts:
            self._departed.add(wid)
            self.fault_log.append(
                {"event": "departure", "step": step, "worker": wid}
            )
        else:
            self._down_until[wid] = step + crash.down_steps

    def _recover_worker(self, worker: Worker, step: int) -> bool:
        """Rejoin one restarted worker; True when it resynced the model."""
        wid = worker.worker_id
        if self._fault.checkpoint_state:
            worker.restore_state(self._checkpoints.pop(wid))
            worker.model.load_state_dict(self.service.state_dict())
            recovery = "checkpoint"
        else:
            # Naive baseline: no recovery protocol at all. The worker
            # keeps zeroed residuals and a replica frozen at crash time —
            # every pull it missed is permanently lost.
            self._checkpoints.pop(wid, None)
            recovery = "none"
        self.fault_log.append(
            {"event": "restart", "step": step, "worker": wid, "recovery": recovery}
        )
        return recovery == "checkpoint"

    def _apply_rack_faults(self, step: int) -> tuple[frozenset, list[int]]:
        """Process uplink-flap events due at ``step``.

        Returns ``(down_racks, rejoined)``: racks cut off from the cross
        tier this step, and racks whose uplink just came back (their
        members resync after the exchange).
        """
        rejoined: list[int] = []
        fault = self._fault
        if fault is None:
            return frozenset(), rejoined
        for rack in range(self.engine_config.racks):
            flap = fault.flap_at(rack, step)
            if flap is not None:
                self._rack_down_until[rack] = step + flap.down_steps
                self._rack_rejoin_delay[rack] = flap.rejoin_delay_seconds
                self._rack_backlog.setdefault(
                    rack,
                    {
                        name: np.zeros(param.shape, dtype=np.float32)
                        for name, param in self.service.params.items()
                    },
                )
                self.fault_log.append(
                    {"event": "flap", "step": step, "rack": rack}
                )
            elif (
                rack in self._rack_down_until
                and step >= self._rack_down_until[rack]
            ):
                del self._rack_down_until[rack]
                rejoined.append(rack)
        return frozenset(self._rack_down_until), rejoined

    def _cross_route(self, name: str, rack: int) -> str:
        """Cross-tier route for ``name``'s aggregate from ``rack``.

        A single upper server sits behind one per-rack uplink
        (``cross:rack<r>``), so the route depends on which rack the
        transfer serves; a sharded upper's NICs (``cross:shard<k>``)
        are owned by the destination shard and shared by every rack.
        """
        route = self._routes[name]
        return f"cross:rack{rack}" if route == "cross" else route

    def _resync_route_elements(self, rack: int = 0) -> dict[str, int]:
        """Per-route element counts of one full-model resync transfer.

        ``rack`` qualifies hier single-upper routes to that rack's own
        uplink; flat topologies' routes pass through unchanged.
        """
        route_elems: dict[str, int] = {}
        for name, param in self.service.params.items():
            route = self._cross_route(name, rack)
            route_elems[route] = route_elems.get(route, 0) + param.size
        return route_elems

    def fault_summary(self) -> dict | None:
        """Aggregate churn telemetry for results archives (None = no faults)."""
        if self._fault is None:
            return None
        counts = {"crash": 0, "restart": 0, "departure": 0, "flap": 0, "rejoin": 0}
        for event in self.fault_log:
            counts[event["event"]] += 1
        return {
            "crashes": counts["crash"],
            "restarts": counts["restart"],
            "departures": counts["departure"],
            "flaps": counts["flap"],
            "rejoins": counts["rejoin"],
            "resync_bytes": sum(s.resync_bytes for s in self.traffic.steps),
            "degraded_steps": self._degraded_steps,
            "checkpoint_state": self._fault.checkpoint_state,
        }

    # -- telemetry ----------------------------------------------------------

    def _tel_metrics(
        self,
        quantum: _Quantum,
        codec_phases: dict[str, float],
        staleness: int | None = None,
    ) -> None:
        """Fold one quantum's traffic record into the registry."""
        record = quantum.traffic
        reg = self.telemetry.registry
        scheme = getattr(self.scheme, "name", type(self.scheme).__name__)
        reg.counter("wire_bytes", phase="push", scheme=scheme).inc(
            record.push_bytes
        )
        reg.counter("wire_bytes", phase="pull", scheme=scheme).inc(
            record.pull_bytes_shared
        )
        if record.intra_rack_bytes or record.cross_rack_bytes:
            reg.counter("wire_bytes", link="intra", scheme=scheme).inc(
                record.intra_rack_bytes
            )
            reg.counter("wire_bytes", link="cross", scheme=scheme).inc(
                record.cross_rack_bytes
            )
        reg.counter("messages", phase="push").inc(record.push_messages)
        reg.counter("messages", phase="pull").inc(record.pull_messages)
        reg.counter("compute_seconds").inc(record.compute_seconds)
        for phase, seconds in codec_phases.items():
            if seconds:
                reg.counter("codec_seconds", phase=phase).inc(seconds)
        if staleness is not None:
            reg.histogram("staleness").observe(staleness)
        reg.gauge("train_loss").set(quantum.loss)
        reg.gauge("learning_rate").set(quantum.lr)

    def _tel_bsp_step(
        self,
        quantum: _Quantum,
        *,
        arrivals: dict[int, float],
        compress_by_worker: dict[int, float],
        stages: list[tuple[str, str, float]],
        pull_decompress_seconds: float,
    ) -> None:
        """Lay one synchronous step on the telemetry virtual clock.

        Per-worker tracks carry compute / compress / barrier-wait spans
        (the straggler-scaled arrival times the barrier decided on, the
        recorded codec costs); the serial middle of the step — server or
        collective codec work — arrives as ordered ``(track, name,
        seconds)`` stages, and the parallel pull decode closes the step on
        every worker track.
        """
        tel = self.telemetry
        tracer = tel.tracer
        step = quantum.step
        t0 = self._tel_clock
        barrier = t0 + quantum.traffic.compute_seconds
        codec_end: dict[int, float] = {}
        top = barrier
        for wid in sorted(arrivals):
            c0 = t0 + arrivals[wid]
            tracer.span("engine", f"worker{wid}", "compute", t0, c0, step=step)
            c1 = c0 + compress_by_worker.get(wid, 0.0)
            if c1 > c0:
                tracer.span(
                    "engine", f"worker{wid}", "compress", c0, c1, step=step
                )
            codec_end[wid] = c1
            top = max(top, c1)
        for wid, c1 in codec_end.items():
            if top > c1:
                tracer.span(
                    "engine", f"worker{wid}", "push+wait", c1, top, step=step
                )
        cursor = top
        for track, name, seconds in stages:
            if seconds > 0:
                tracer.span(
                    "engine", track, name, cursor, cursor + seconds, step=step
                )
            cursor += seconds
        if pull_decompress_seconds > 0:
            for wid in sorted(arrivals):
                tracer.span(
                    "engine",
                    f"worker{wid}",
                    "pull-decompress",
                    cursor,
                    cursor + pull_decompress_seconds,
                    step=step,
                )
        cursor += pull_decompress_seconds
        self._tel_clock = cursor
        codec_phases = {
            "compress": max(compress_by_worker.values(), default=0.0),
            "pull-decompress": pull_decompress_seconds,
        }
        for _, name, seconds in stages:
            codec_phases[name] = codec_phases.get(name, 0.0) + seconds
        self._tel_metrics(quantum, codec_phases)
        tel.snapshot_step(step=step, clock_seconds=cursor)

    def _tel_async_update(
        self,
        quantum: _Quantum,
        *,
        track: str,
        t0: float,
        phases: list[tuple[str, str, float]],
        staleness: int,
    ) -> None:
        """One async/SSP update on the emitting unit's virtual clock.

        The compute span opens at ``t0`` on the unit's own ``track``;
        ``phases`` are ordered ``(track, name, seconds)`` laid after it.
        """
        tel = self.telemetry
        tracer = tel.tracer
        update = quantum.traffic.step
        cursor = t0 + quantum.traffic.compute_seconds
        tracer.span(
            "engine", track, "compute", t0, cursor,
            update=update, staleness=staleness,
        )
        codec_phases: dict[str, float] = {}
        for track, name, seconds in phases:
            if seconds > 0:
                tracer.span(
                    "engine", track, name, cursor, cursor + seconds, update=update
                )
            cursor += seconds
            codec_phases[name] = codec_phases.get(name, 0.0) + seconds
        self._tel_metrics(quantum, codec_phases, staleness)
        tel.snapshot_step(update=update, step=quantum.step, clock_seconds=cursor)

    # -- the wire ledger -----------------------------------------------------

    def _open_ledger(
        self, index: int, *, pull_fanout: int, num_workers: int
    ) -> _Ledger:
        """A fresh ledger for quantum ``index`` (a step, or an update)."""
        return _Ledger(
            StepTraffic(
                step=index,
                pull_fanout=pull_fanout,
                num_workers=num_workers,
                model_elements=self._model_elements,
            ),
            self.engine_config.record_transmissions,
            self.engine_config.clock,
        )

    @staticmethod
    def _frames(messages):
        """``(label, params, message)`` for each transmitted frame, in wire
        order. A ``None`` frame was deferred by the scheme and put nothing
        on the wire."""
        for label, frame in messages.items():
            if frame is not None:
                yield label, frame.names, frame.message

    def _post_flat(
        self, ledger: _Ledger, phase: str, items, *, bypassed=None, **routing
    ) -> None:
        """Post parameter-service frames on their tensors' routes.

        ``bypassed`` feeds Figure 9's series: given the service's bypass
        set, frames of the other tensors — the ones that went through the
        lossy codec — are also counted apart.
        """
        routes = self._routes
        for label, params, message in items:
            ledger.post(
                phase,
                label,
                params,
                message,
                routes[params[0]],
                main=bypassed is not None and params[0] not in bypassed,
                **routing,
            )

    def _post_hier_push(self, ledger: _Ledger, outcome) -> None:
        """Post one hierarchical exchange's upward traffic.

        Rack rings follow the ring convention — the meter takes the
        all-links totals, the records one collective per tensor per rack
        at the busiest link's bytes — then each rack's compressed
        aggregate crosses its uplink, depending on the rack collectives
        of the tensors it carries (a fused frame leaves only once every
        member's collective landed).
        """
        rack_size = self.engine_config.rack_size
        traffic = ledger.traffic
        traffic.push_bytes += outcome.intra_wire_bytes
        traffic.push_elements += outcome.intra_elements
        traffic.push_messages += outcome.ring_frames
        traffic.intra_rack_bytes += outcome.intra_wire_bytes
        if ledger.records is not None:
            for rack, link_bytes in zip(
                outcome.rack_indices, outcome.per_rack_link_bytes
            ):
                for name in self.service.params:
                    ledger.emit(
                        f"{name}@rack{rack}",
                        (name,),
                        link_bytes.get(name, 0),
                        outcome.per_tensor_elements.get(name, 0),
                        f"rack{rack}",
                        "collective",
                        worker=rack * rack_size,
                        frames=self.service.rack_rings[rack].link_frames,
                    )
        # Only racks whose uplink is alive have cross-push entries; they
        # lead ``rack_indices``.
        for rack, messages in zip(outcome.rack_indices, outcome.cross_push_results):
            for label, params, message in self._frames(messages):
                traffic.cross_rack_bytes += message.wire_size
                ledger.post(
                    "push",
                    f"{label}@up{rack}",
                    params,
                    message,
                    self._cross_route(params[0], rack),
                    worker=rack * rack_size,
                    depends_on=tuple(f"{name}@rack{rack}" for name in params),
                )

    def _post_hier_pull(
        self,
        ledger: _Ledger,
        items,
        racks: tuple[int, ...],
        *,
        unit: int | None = None,
    ) -> None:
        """Post delta frames flowing down to ``racks``.

        Each frame crosses the core tier once per rack, then circulates
        that rack's ring (``rack_size - 1`` more copies) as a broadcast
        depending on the crossing. ``unit`` is the rack pulling its own
        individual (async/SSP) stream. A BSP step's shared pull
        (``unit=None``) reaches every up rack: behind a single upper
        server each rack pulls its copy down its own uplink, while a
        sharded upper's NIC carries all the copies itself.
        """
        rack_size = self.engine_config.rack_size
        traffic = ledger.traffic
        for label, params, message in items:
            ledger.count("pull", message)
            traffic.cross_rack_bytes += message.wire_size * len(racks)
            traffic.intra_rack_bytes += (
                message.wire_size * len(racks) * (rack_size - 1)
            )
            if ledger.records is None:
                continue
            wire = (message.wire_size, message.element_count)
            route = self._routes[params[0]]
            if unit is None and route != "cross":
                ledger.emit(
                    label, params, *wire, route, "pull",
                    copies=len(racks), frames=len(racks),
                )
                crossing = dict.fromkeys(racks, label)
            else:
                crossing = {rack: f"{label}@down{rack}" for rack in racks}
                for rack in racks:
                    ledger.emit(
                        crossing[rack], params, *wire,
                        self._cross_route(params[0], rack), "pull", worker=unit,
                    )
            for rack in racks:
                ledger.emit(
                    f"{label}@bcast{rack}", params, *wire, f"rack{rack}", "pull",
                    worker=unit,
                    frames=rack_size - 1,
                    depends_on=(crossing[rack],),
                )

    # -- synchronous strategies (BSP) ----------------------------------------

    def _ps_step(self) -> _Quantum:
        """One BSP step against a parameter service (single or sharded)."""
        step = self.service.global_step

        # Fault processing first: crashes due this step take their worker
        # out *before* compute; rejoins resync from the pre-step global
        # model and compute normally. Down/departed workers carry a None
        # batch through the whole step.
        resynced = self._apply_worker_faults(step)
        batches = [
            worker.train_step()
            if worker.worker_id not in self._down_until
            and worker.worker_id not in self._departed
            else None
            for worker in self.workers
        ]
        live = [
            (worker, batch)
            for worker, batch in zip(self.workers, batches)
            if batch is not None
        ]
        if not live:
            raise RuntimeError(f"step {step}: no live workers remain")

        # Barrier: decide whose pushes enter aggregation. Straggler-scaled
        # compute time determines arrival order; dropped pushes were still
        # transmitted (they consumed bandwidth) but are discarded.
        arrivals = self._arrivals(batches)
        decision = self._barrier_decide(arrivals)
        pull_batch = self.service.step(
            [batches[i].messages for i in decision.accepted],
            divisor=len(decision.accepted),
        )

        # Workers pull the *shared* compressed deltas and apply them.
        t0 = time.perf_counter()
        deltas = self.service.decompress_pulls(pull_batch.messages)
        pull_decompress_seconds = time.perf_counter() - t0
        for worker, _ in live:
            worker.apply_pull(deltas)

        ledger = self._open_ledger(
            step, pull_fanout=len(live), num_workers=len(live)
        )
        bypassed = self.service.bypassed
        for worker, batch in live:
            self._post_flat(
                ledger,
                "push",
                self._frames(batch.messages),
                bypassed=bypassed,
                worker=worker.worker_id,
            )
        # A shared pull is compressed once but physically transmitted to
        # every worker: one frame (and one payload copy) per subscriber.
        self._post_flat(
            ledger,
            "pull",
            self._frames(pull_batch.messages),
            bypassed=bypassed,
            copies=len(live),
            frames=len(live),
        )
        traffic = ledger.traffic
        if resynced:
            # Checkpointed rejoin: each restarted worker pulls the full
            # float32 model once before computing — raw records on the
            # step's pull phase, one per service route.
            traffic.resync_bytes = 4 * traffic.model_elements * len(resynced)
            for wid in resynced:
                for route, elements in sorted(self._resync_route_elements().items()):
                    ledger.emit(
                        f"resync:w{wid}:{route}", (), 4 * elements, elements,
                        route, "pull", worker=wid,
                    )
        traffic.dropped_pushes = len(decision.dropped)
        # Workers run in parallel: the barrier charges the slowest worker it
        # actually waited for (straggler-scaled; backup workers excluded).
        # Codec work on the critical path: slowest worker's push compression,
        # the server's serialized decompress + compress, and one worker's
        # pull decompression (workers decompress in parallel).
        transmissions, codec = ledger.close(
            StepTransmissions,
            decision.compute_seconds,
            dict(
                push_compress_seconds=max(b.compress_seconds for _, b in live),
                server_decompress_seconds=pull_batch.decompress_seconds,
                server_compress_seconds=pull_batch.compress_seconds,
                pull_decompress_seconds=pull_decompress_seconds,
            ),
            step=step,
        )
        modeled = self.engine_config.clock.modeled
        return _Quantum(
            step=step,
            loss=float(np.mean([batch.loss for _, batch in live])),
            lr=self.service.schedule(step),
            traffic=traffic,
            transmissions=transmissions,
            layout=dict(
                arrivals=arrivals,
                compress_by_worker={
                    worker.worker_id: codec["push_compress_seconds"]
                    if modeled
                    else batch.compress_seconds
                    for worker, batch in live
                },
                stages=[
                    ("server", "decompress", codec["server_decompress_seconds"]),
                    ("server", "apply+compress", codec["server_compress_seconds"]),
                ],
                pull_decompress_seconds=codec["pull_decompress_seconds"],
            ),
        )

    def _ring_step(self) -> _Quantum:
        """One BSP step over the ring: raw gradients, per-hop compression."""
        step = self.service.global_step
        ring = self.service.ring

        batches = [worker.train_step_raw() for worker in self.workers]
        arrivals = self._arrivals(batches)
        decision = self.barrier.decide(arrivals)
        outcome = self.service.exchange([b.grads for b in batches])
        for worker in self.workers:
            worker.apply_pull(outcome.deltas)

        # No pull phase: the all-gather already fanned out.
        ledger = self._open_ledger(step, pull_fanout=0, num_workers=ring.num_nodes)
        traffic = ledger.traffic
        traffic.push_bytes = outcome.wire_bytes
        traffic.push_elements = outcome.elements
        # Every (node, hop) chunk transmission is one framed message.
        traffic.push_messages = len(self.service.params) * ring.frames
        # One collective record per tensor, accounted *per link*: bytes are
        # what one hop link carries and frames are one chunk message per
        # hop (all N links run their 2(N-1) hops in parallel; the meter's
        # aggregate count stays all-links). The per-hop codec time rides in
        # the push-compression pipeline.
        for name in self.service.params:
            ledger.emit(
                name,
                (name,),
                outcome.per_tensor_link_bytes.get(name, 0),
                outcome.per_tensor_elements.get(name, 0),
                self._routes[name],
                "collective",
                frames=ring.link_frames,
            )
        transmissions, codec = ledger.close(
            StepTransmissions,
            decision.compute_seconds,
            dict(push_compress_seconds=outcome.codec_seconds),
            step=step,
        )
        return _Quantum(
            step=step,
            loss=float(np.mean([b.loss for b in batches])),
            lr=self.service.schedule(step),
            traffic=traffic,
            transmissions=transmissions,
            layout=dict(
                arrivals=arrivals,
                compress_by_worker={},
                # The ring's one stage carries all of the step's codec
                # seconds (a modeled clock prices the hop decodes apart).
                stages=[("ring", "allreduce+codec", sum(codec.values()))],
                pull_decompress_seconds=0.0,
            ),
        )

    def _hier_step(self) -> _Quantum:
        """One BSP step over the two-tier exchange: rack rings, then the
        cross-rack service, then the shared deltas fan back down."""
        step = self.service.global_step
        config = self.engine_config
        racks, rack_size = config.racks, config.rack_size

        down_racks, rejoined = self._apply_rack_faults(step)

        batches = [worker.train_step_raw() for worker in self.workers]
        arrivals = self._arrivals(batches)
        decision = self._barrier_decide(arrivals)
        outcome = self.service.exchange(
            [b.grads for b in batches],
            down_racks=down_racks,
            catch_up={r: self._rack_backlog[r] for r in rejoined},
        )
        lr = self.service.schedule(step)
        for rack in range(racks):
            members = self._rack_workers(rack)
            if rack in down_racks:
                # Degraded local-only step: the rack ring-reduced its
                # members' gradients but the aggregate cannot reach the
                # core. Members apply a plain SGD step on the rack average
                # (no momentum or weight decay — the core owns the
                # optimizer state) and the gradient is banked for the
                # rejoin catch-up push.
                grads = outcome.down_rack_grads[rack]
                backlog = self._rack_backlog[rack]
                local_delta = {name: -lr * grad for name, grad in grads.items()}
                for name, grad in grads.items():
                    backlog[name] += grad
                for worker in members:
                    worker.apply_pull(local_delta)
            else:
                for worker in members:
                    worker.apply_pull(outcome.deltas)
        if down_racks:
            self._degraded_steps += 1
        if rejoined:
            # The rejoining rack's banked catch-up went up this step; its
            # members now resync their replicas from the post-step global
            # model, replacing the outage-window local drift.
            global_state = self.service.state_dict()
            for rack in rejoined:
                for worker in self._rack_workers(rack):
                    worker.model.load_state_dict(global_state)
                self._rack_backlog.pop(rack, None)
                self.fault_log.append(
                    {"event": "rejoin", "step": step, "rack": rack}
                )

        up_racks = tuple(r for r in range(racks) if r not in down_racks)
        ledger = self._open_ledger(
            step,
            # Every member of an up rack receives one physical copy of
            # each shared cross-rack pull: one copy per up rack crosses
            # the uplink, then rack_size - 1 more circulate the rack ring.
            pull_fanout=len(up_racks) * rack_size,
            num_workers=config.num_workers,
        )
        self._post_hier_push(ledger, outcome)
        self._post_hier_pull(ledger, self._frames(outcome.pull_messages), up_racks)
        traffic = ledger.traffic
        link_down: tuple[tuple[str, float], ...] = ()
        if rejoined:
            # Rejoin resync: one full float32 model per rejoined rack —
            # one copy over the uplink, rack_size - 1 over the rack ring.
            model_bytes = 4 * traffic.model_elements
            traffic.resync_bytes = model_bytes * rack_size * len(rejoined)
            traffic.cross_rack_bytes += model_bytes * len(rejoined)
            traffic.intra_rack_bytes += (
                model_bytes * (rack_size - 1) * len(rejoined)
            )
            # The rejoining rack's uplink is back but still re-converging:
            # floor only that rack's cross routes, each with its own
            # rejoin delay. (Sharded uppers share their NICs across racks,
            # so those floors still bleed over.)
            floors: dict[str, float] = {}
            for rack in rejoined:
                delay = self._rack_rejoin_delay.pop(rack, 0.0)
                route_elems = sorted(self._resync_route_elements(rack).items())
                for route, elements in route_elems:
                    if delay > 0.0:
                        floors[route] = max(floors.get(route, 0.0), delay)
                    ledger.emit(
                        f"resync:rack{rack}:{route}", (), 4 * elements, elements,
                        route, "pull",
                    )
                ledger.emit(
                    f"resync:rack{rack}:bcast",
                    (),
                    model_bytes,
                    traffic.model_elements,
                    f"rack{rack}",
                    "pull",
                    frames=rack_size - 1,
                    depends_on=tuple(
                        f"resync:rack{rack}:{route}" for route, _ in route_elems
                    ),
                )
            link_down = tuple(sorted(floors.items()))
        # Critical path: the slowest rack's serial (ring + uplink codec)
        # pipeline, the upper service's serialized decompress + compress,
        # and one shared decode of the pulled deltas.
        transmissions, codec = ledger.close(
            StepTransmissions,
            decision.compute_seconds,
            dict(
                push_compress_seconds=outcome.push_compress_seconds,
                server_decompress_seconds=outcome.server_decompress_seconds,
                server_compress_seconds=outcome.server_compress_seconds,
                pull_decompress_seconds=outcome.pull_decompress_seconds,
            ),
            step=step,
            link_down=link_down,
        )
        return _Quantum(
            step=step,
            loss=float(np.mean([b.loss for b in batches])),
            lr=lr,
            traffic=traffic,
            transmissions=transmissions,
            layout=dict(
                arrivals=arrivals,
                compress_by_worker={},
                stages=[
                    ("racks", "rack-pipeline", codec["push_compress_seconds"]),
                    ("server", "decompress", codec["server_decompress_seconds"]),
                    ("server", "apply+compress", codec["server_compress_seconds"]),
                ],
                pull_decompress_seconds=codec["pull_decompress_seconds"],
            ),
        )

    # -- event-driven strategies (async / SSP) -------------------------------

    def _next_unit(self) -> int:
        eligible = self.sync.eligible(self._local_steps)
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
        applies, the transmitted ``(label, params, message)`` frames in
        wire order, and the compression seconds.
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
        return deltas, list(self._frames(messages)), seconds

    def _async_update(self) -> _Quantum:
        """One worker's asynchronous update against a parameter service."""
        wid = self._next_unit()
        worker = self.workers[wid]
        batch = worker.train_step()
        local_step, compute_seconds, started = self._commit_compute(
            wid, [worker], [batch]
        )

        # The service applies this worker's (stale) gradient immediately.
        step = self.service.global_step
        staleness = step - self._pull_step[wid]
        pull_batch = self.service.step([batch.messages], divisor=1)
        deltas, pulls, pull_compress_seconds = self._individual_pull(wid)
        worker.apply_pull(deltas)

        ledger = self._open_ledger(self.update_count, pull_fanout=1, num_workers=1)
        self._post_flat(ledger, "push", self._frames(batch.messages), worker=wid)
        self._post_flat(ledger, "pull", pulls, worker=wid)
        # Honest per-update accounting: this scheduling quantum computed on
        # one worker and serialized one apply on the server (the discarded
        # shared-pull compression stays uncharged).
        transmissions, codec = ledger.close(
            UpdateTransmissions,
            compute_seconds,
            dict(
                push_compress_seconds=batch.compress_seconds,
                server_seconds=pull_batch.decompress_seconds,
                pull_compress_seconds=pull_compress_seconds,
                # The unit applies the compression result's reconstruction
                # directly: there is no decode to measure.
                pull_decompress_seconds=0.0,
            ),
            update=self.update_count,
            worker=wid,
            local_step=local_step,
            global_step=step,
            staleness=staleness,
            clock_seconds=self._clock[wid],
        )
        return _Quantum(
            step=step,
            loss=batch.loss,
            lr=self.service.schedule(step),
            traffic=ledger.traffic,
            transmissions=transmissions,
            layout=dict(
                track=f"worker{wid}",
                t0=started,
                phases=[
                    (f"worker{wid}", "compress", codec["push_compress_seconds"]),
                    ("server", "apply", codec["server_seconds"]),
                    ("server", "pull-compress", codec["pull_compress_seconds"]),
                    (f"worker{wid}", "pull-decompress", codec["pull_decompress_seconds"]),
                ],
                staleness=staleness,
            ),
        )

    def _hier_async_update(self) -> _Quantum:
        """One rack's asynchronous update: the rack steps synchronously
        (ring all-reduce over its members), then exchanges with the
        cross-rack service on its own clock — intra-rack BSP, inter-rack
        async/SSP, with staleness observed at rack granularity."""
        rack = self._next_unit()
        workers = self._rack_workers(rack)
        batches = [worker.train_step_raw() for worker in workers]
        local_step, compute_seconds, started = self._commit_compute(
            rack, workers, batches
        )

        step = self.service.global_step
        staleness = step - self._pull_step[rack]
        outcome = self.service.rack_exchange(rack, [b.grads for b in batches])
        # The rack's individual pull crosses the uplink once and circulates
        # the rack ring, like any shared delta.
        deltas, pulls, pull_compress_seconds = self._individual_pull(rack)
        for worker in workers:
            worker.apply_pull(deltas)

        rack_size = self.engine_config.rack_size
        ledger = self._open_ledger(
            self.update_count,
            # This rack's pull: one copy over the uplink plus the
            # rack-internal re-broadcast — one physical copy per member.
            pull_fanout=rack_size,
            num_workers=rack_size,
        )
        self._post_hier_push(ledger, outcome)
        self._post_hier_pull(ledger, pulls, (rack,), unit=rack)
        transmissions, codec = ledger.close(
            UpdateTransmissions,
            compute_seconds,
            dict(
                push_compress_seconds=outcome.push_compress_seconds,
                server_seconds=outcome.server_decompress_seconds,
                pull_compress_seconds=pull_compress_seconds,
                pull_decompress_seconds=0.0,
            ),
            update=self.update_count,
            worker=rack,
            local_step=local_step,
            global_step=step,
            staleness=staleness,
            clock_seconds=self._clock[rack],
        )
        return _Quantum(
            step=step,
            loss=float(np.mean([b.loss for b in batches])),
            lr=self.service.schedule(step),
            traffic=ledger.traffic,
            transmissions=transmissions,
            layout=dict(
                track=f"rack{rack}",
                t0=started,
                phases=[
                    (f"rack{rack}", "rack-pipeline", codec["push_compress_seconds"]),
                    ("server", "apply", codec["server_seconds"]),
                    ("server", "pull-compress", codec["pull_compress_seconds"]),
                    (f"rack{rack}", "pull-decompress", codec["pull_decompress_seconds"]),
                ],
                staleness=staleness,
            ),
        )

    def max_staleness_observed(self) -> int:
        """Largest local-step lead any worker currently holds (async/SSP)."""
        if self.sync.synchronous:
            return 0
        steps = self._local_steps.values()
        return max(steps) - min(steps)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, *, test_size: int = 1000) -> EvalResult:
        """Evaluate the *global* model on the held-out test set.

        Batch-norm running statistics come from worker 0's replica — the
        paper makes one worker responsible for batch-norm updates (§5.2).
        """
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
