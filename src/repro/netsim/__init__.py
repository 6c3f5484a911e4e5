"""Discrete-event network simulator for per-layer overlap scheduling.

Replays one training step as a timeline of events — per-layer backward
completions, per-worker codec pipelines, per-link transmissions — and
reports the honest step time, the *measured* overlap fraction (replacing
the analytic model's calibrated 0.9 constant), per-link utilization, and
the critical path. Async/SSP runs replay per-*update* event streams
instead (:class:`EventDrivenSimulator`): per-worker virtual clocks, FIFO
link interleaving, and blocking SSP barriers, reporting per-worker
throughput and the effective staleness distribution. See
ARCHITECTURE.md's "how step times are computed".
"""

from repro.netsim.events import (
    SimulatedExchange,
    SimulatedRun,
    SimulatedStep,
    SimulatedUpdate,
    StepTransmissions,
    TransmissionRecord,
    UpdateTransmissions,
    updates_from_bsp_steps,
)
from repro.netsim.links import (
    LinkModel,
    hierarchical_links,
    ring_links,
    sharded_links,
    single_server_links,
)
from repro.netsim.scheduler import (
    PRIORITIES,
    EventDrivenSimulator,
    NetworkSimulator,
    per_tier_serialized_seconds,
    wire_occupancy_seconds,
)
from repro.netsim.replay import RecordedTraining, RecordingKey, SweepReplayCache
from repro.netsim.topology import link_model_for
from repro.netsim.vector import (
    RecordBatch,
    dependency_waves,
    phase_partition,
    record_batch,
    wire_occupancy_batch,
)

__all__ = [
    "TransmissionRecord",
    "StepTransmissions",
    "UpdateTransmissions",
    "SimulatedStep",
    "SimulatedRun",
    "SimulatedUpdate",
    "SimulatedExchange",
    "updates_from_bsp_steps",
    "LinkModel",
    "single_server_links",
    "sharded_links",
    "ring_links",
    "hierarchical_links",
    "PRIORITIES",
    "NetworkSimulator",
    "EventDrivenSimulator",
    "dependency_waves",
    "wire_occupancy_seconds",
    "per_tier_serialized_seconds",
    "link_model_for",
    "RecordingKey",
    "RecordedTraining",
    "SweepReplayCache",
    "RecordBatch",
    "record_batch",
    "phase_partition",
    "wire_occupancy_batch",
]
