"""Experiment configuration: the reproduction's counterpart of §5.2.

One :class:`ExperimentConfig` pins everything an experiment needs — model,
dataset, cluster shape, step budget, learning-rate schedule, and the
hardware-substitution time model — so that every table and figure is
regenerated from a single declarative object (ARCHITECTURE.md shows where
it sits in the layer stack).

Scale notes (ARCHITECTURE.md, "The nn substrate and the compute scale"):
the paper trains ResNet-110 on CIFAR-10 with 10 GPU workers for 25,600
steps; the reproduction defaults to a ResNet-14 on the synthetic 16×16
task with 4 workers and a few hundred steps, preserving the architecture
family, optimizer, schedule, and measurement protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from repro.data.synthetic import CHANNELS, DatasetSpec, SyntheticImageDataset
from repro.distributed.barriers import StragglerSpec
from repro.distributed.defaults import FUSION_BUCKET_ELEMENTS
from repro.distributed.faults import FaultSpec
from repro.exchange.clock import MEASURED, Clock
from repro.exchange.engine import EngineConfig, check_count
from repro.netsim import PRIORITIES
from repro.network.timing import StepTimeModel
from repro.nn.resnet import build_mlp, build_resnet
from repro.nn.schedule import CosineDecay, scale_lr_for_workers

__all__ = [
    "ExperimentConfig",
    "OBSERVED_UNDER",
    "SIMULATED_ONLY",
    "DEFAULT_CONFIG",
    "FAST_CONFIG",
]

#: Which knob is observable under which selector: ``field -> (selector
#: field, value)``. A run reads the field only while the selector holds
#: that value, so the plan tuner resets it elsewhere (equivalent points
#: collapse to one) and the CLI refuses an explicit flag for it. A field
#: not listed here is always observable.
OBSERVED_UNDER: dict[str, tuple[str, object]] = {
    "num_shards": ("topology", "sharded"),
    "racks": ("topology", "hier"),
    "rack_size": ("topology", "hier"),
    "cross_bw_fraction": ("topology", "hier"),
    "cross_rtt_seconds": ("topology", "hier"),
    "staleness": ("sync_mode", "ssp"),
    "bucket_elements": ("fuse_small_tensors", True),
    "fuse_lossy": ("fuse_small_tensors", True),
    "bucket_boundaries": ("fuse_small_tensors", True),
}

#: Knobs only the network simulator reads: the analytic step-time model
#: ignores them, so they are observable only with ``sim_overlap`` (which
#: a loaded plan forces on). The CLI checks this after ``OBSERVED_UNDER``.
SIMULATED_ONLY = ("cross_bw_fraction", "cross_rtt_seconds", "transmission_priority")

#: ``EngineConfig`` field -> the ``ExperimentConfig`` field it is read
#: from: the same name but for two renames.
_ENGINE_FIELDS = {f.name: f.name for f in fields(EngineConfig)} | {
    "seed": "cluster_seed",
    "record_transmissions": "sim_overlap",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment family."""

    # Model (paper: ResNet-110, base width 16). ``model_family`` selects
    # the architecture: "resnet" (depth/base_width) or "mlp" (the bench
    # MLP over flattened inputs, ``build_mlp``'s default hidden widths).
    model_family: str = "resnet"
    depth: int = 14
    base_width: int = 8
    model_seed: int = 42

    # Dataset (paper: CIFAR-10; the synthetic task's class count and noise
    # are ``repro.data.synthetic``'s constants)
    image_size: int = 16
    dataset_seed: int = 0

    # Cluster (paper: 10 workers, batch 32/worker; the optimizer, the
    # augmentation and the §5.1 bypass are the paper's fixed setup)
    num_workers: int = 4
    batch_size: int = 16
    shard_size: int = 512
    cluster_seed: int = 0

    # Exchange plan (paper: single parameter server, BSP). The unified
    # engine also runs sharded, ring, and hierarchical topologies and
    # async/SSP modes.
    topology: str = "single"
    sync_mode: str = "bsp"
    num_shards: int = 2
    backup_workers: int = 0
    staleness: int | None = None
    #: Per-step compute-time jitter / straggler injection (None = uniform
    #: compute). Changes what the engine records, so it is part of the
    #: sweep-replay fingerprint — never canonicalized away.
    straggler: StragglerSpec | None = None
    #: Injected churn (worker crash/restart, rack uplink flaps, permanent
    #: departures). Validated against topology/sync mode by
    #: ``EngineConfig``; like ``straggler`` it invalidates cached recordings.
    fault: FaultSpec | None = None
    #: Hierarchical topology shape: ``racks`` racks of ``rack_size``
    #: workers (must multiply to ``num_workers``), with one parameter
    #: server as the cross-rack tier.
    racks: int = 2
    rack_size: int = 2
    #: Cross-rack uplink rate as a fraction of the swept link rate (the
    #: Table 1 columns keep meaning "the fabric's per-link rate"; the
    #: core is this much scarcer — the regime the paper targets).
    cross_bw_fraction: float = 0.1
    #: Per-frame propagation delay on the cross-rack uplinks.
    cross_rtt_seconds: float = 0.0
    #: Fused-bucket hot path for the small-tensor bypass set. Composes
    #: with the sharded and hierarchical topologies (partition-aware wire
    #: plans) and with async/SSP (per-worker fused pull streams).
    fuse_small_tensors: bool = False
    #: Fused-bucket capacity in elements (``--bucket-elements``).
    bucket_elements: int = FUSION_BUCKET_ELEMENTS
    #: Lossy fused buckets: the scheme's codec over each whole bucket with
    #: one shared scale, instead of the exact float32 bypass.
    fuse_lossy: bool = False
    #: Parameter names that force-close the open fusion bucket *before*
    #: packing them — per-layer bucket boundaries the tuner searches over.
    #: Only meaningful with ``fuse_small_tensors``.
    bucket_boundaries: tuple[str, ...] = ()
    #: Simulator service order within a transmission wave:
    #: "registration" (the engine's record order) or "smallest"
    #: (smallest-gradient-first, so short messages clear the link ahead of
    #: large ones). Simulation-only: recordings are shared across
    #: priorities by the replay cache.
    transmission_priority: str = "registration"
    #: Per-link timing via the discrete-event simulator (``repro.netsim``):
    #: per-layer overlap scheduling replaces the analytic model's
    #: calibrated overlap constant, and sharded/ring runs are charged
    #: per-link instead of through a fictitious shared server NIC.
    #: Async/SSP runs replay per-update event streams through the
    #: event-driven scheduler (per-worker virtual clocks, FIFO links,
    #: blocking SSP barriers) instead of BSP step plans.
    sim_overlap: bool = False
    #: Telemetry (``--telemetry`` / ``--trace-out`` / ``--metrics-out``):
    #: the engine and simulators report into a per-run
    #: :class:`repro.telemetry.Telemetry` session — labeled metric series,
    #: simulated-clock spans — and ``RunResult.telemetry_summary`` carries
    #: the rollup. Off by default: the instrumented paths stay no-op.
    telemetry: bool = False
    #: Whether recorded seconds (engine compute and codec, the backward
    #: timeline) are measured or modeled (:mod:`repro.exchange.clock`). It
    #: changes what is recorded, so recordings and timelines are keyed on it.
    clock: Clock = MEASURED

    # Training budget and schedule (paper: 25,600 steps, cosine 0.1 -> 0.001
    # scaled by worker count; the floor is ``CosineDecay``'s)
    standard_steps: int = 240
    base_lr: float = 0.02

    # Evaluation
    eval_size: int = 1000
    eval_points: int = 8

    # Scheme seed (stochastic ternary, top-k sampling)
    scheme_seed: int = 0

    # Hardware-substitution time model (ARCHITECTURE.md, "The nn substrate
    # and the compute scale").
    # per_message_overhead is charged per wire *frame*: an unfused
    # ResNet-14 step moves a few hundred frames (~= the old flat 2 ms
    # per-step constant), a fused run proportionally fewer.
    time_model: StepTimeModel = field(
        default_factory=lambda: StepTimeModel(
            overlap=0.9,
            per_message_overhead=25e-6,
            compute_scale=0.05,
            codec_scale=0.5,
        )
    )

    def __post_init__(self) -> None:
        if self.standard_steps < 4:
            raise ValueError("standard_steps must be >= 4")
        check_count("eval_size", self.eval_size)
        check_count("eval_points", self.eval_points)
        if self.model_family not in ("resnet", "mlp"):
            raise ValueError(
                f"unknown model_family {self.model_family!r}; "
                "expected 'resnet' or 'mlp'"
            )
        if self.transmission_priority not in PRIORITIES:
            raise ValueError(
                "unknown transmission_priority "
                f"{self.transmission_priority!r}; "
                f"expected {' or '.join(map(repr, PRIORITIES))}"
            )
        if self.topology == "hier":
            # NaN fails both comparisons; an infinity would pass them and
            # train before the link refuses it.
            bw, rtt = self.cross_bw_fraction, self.cross_rtt_seconds
            if not (bw > 0 and math.isfinite(bw)):
                raise ValueError(f"cross_bw_fraction must be finite and > 0, got {bw!r}")
            if not (rtt >= 0 and math.isfinite(rtt)):
                raise ValueError(f"cross_rtt_seconds must be finite and >= 0, got {rtt!r}")
        # Everything about the exchange plan itself — topology, sync mode,
        # cluster shape, fusion, faults — has one rule set: EngineConfig's.
        self.engine_config()

    # -- factories ---------------------------------------------------------

    def dataset(self) -> SyntheticImageDataset:
        return SyntheticImageDataset(
            DatasetSpec(image_size=self.image_size, seed=self.dataset_seed)
        )

    def model_factory(self):
        seed = self.model_seed
        if self.model_family == "mlp":
            in_features = CHANNELS * self.image_size * self.image_size

            def factory():
                return build_mlp(in_features, seed=seed)

            return factory

        depth, width = self.depth, self.base_width

        def factory():
            return build_resnet(depth, base_width=width, seed=seed)

        return factory

    def engine_config(self) -> EngineConfig:
        """The unified-engine configuration for this experiment family."""
        return EngineConfig(
            **{name: getattr(self, own) for name, own in _ENGINE_FIELDS.items()}
        )

    def schedule(self, total_steps: int) -> CosineDecay:
        """Cosine decay over the *adjusted* budget (paper §5.2: shorter
        runs still sweep the entire learning-rate range)."""
        return CosineDecay(
            scale_lr_for_workers(self.base_lr, self.num_workers), total_steps
        )

    def steps_for_fraction(self, fraction: float) -> int:
        """Step budget for a 25/50/75/100% experiment."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
        return max(1, round(self.standard_steps * fraction))

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Copy with overridden fields (used by tests and the CLI)."""
        return replace(self, **overrides)


#: Benchmark-scale configuration (regenerates the tables/figures).
DEFAULT_CONFIG = ExperimentConfig()

#: Miniature configuration for tests and quick demos.
FAST_CONFIG = ExperimentConfig(
    depth=8,
    base_width=4,
    image_size=12,
    num_workers=2,
    batch_size=8,
    shard_size=64,
    standard_steps=24,
    eval_size=200,
    eval_points=2,
)
