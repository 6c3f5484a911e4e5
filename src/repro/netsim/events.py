"""Event data for the discrete-event network simulator.

The simulator replays one training step as a timeline of events: backward
produces layer gradients in reverse registration order, each gradient (or
fused bucket) is codec-compressed, and the resulting wire message is
scheduled onto a modeled link. The exchange engine records the *facts* of
each step — which messages, how many bytes, which route — as
:class:`StepTransmissions`; the scheduler turns them into a
:class:`SimulatedStep` (step time, achieved overlap, per-link utilization,
critical path).

These dataclasses are pure data with no dependency on the exchange layer,
so the engine can populate them the same way it populates
:class:`~repro.network.traffic.StepTraffic` without a layering inversion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral

__all__ = [
    "TransmissionRecord",
    "StepTransmissions",
    "UpdateTransmissions",
    "SimulatedStep",
    "SimulatedRun",
    "SimulatedUpdate",
    "SimulatedExchange",
    "updates_from_bsp_steps",
]

#: Transmission phases: ``push`` and ``collective`` payloads can overlap
#: the backward pass; ``pull`` payloads exist only after the global update.
PHASES = ("push", "collective", "pull")


def _names(name: str, field_name: str, value) -> tuple[str, ...]:
    """A ``params`` / ``depends_on`` value as a tuple of interned names."""
    if type(value) is tuple:
        try:
            return tuple(map(sys.intern, value))
        except TypeError:  # an element that is not a str
            pass
    raise ValueError(
        f"record {name!r}: {field_name} must be a tuple of str, got {value!r}"
    )


def _check_seconds(owner: str, plan, fields: tuple[str, ...]) -> None:
    """Refuse a plan whose seconds could invent a step time: every named
    field and every ``link_down`` floor must be finite and >= 0."""
    values = [(f, getattr(plan, f)) for f in fields]
    values += [(f"link_down[{route!r}]", down) for route, down in plan.link_down]
    for field_name, value in values:
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"{owner}: {field_name} must be finite and >= 0, got {value!r}"
            )


def _check_count(name: str, field_name: str, value, minimum: int) -> None:
    """Refuse anything but an integer (``bool`` excluded) >= ``minimum``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"record {name!r}: {field_name} must be an integer >= {minimum}, "
            f"got {value!r}"
        )


@dataclass(frozen=True, slots=True, init=False)
class TransmissionRecord:
    """One wire transmission within a training step.

    Records are most of a recording's memory (one per message per step,
    and the replay cache keeps whole recordings), so a record pays for its
    numbers, not its strings. It is slotted: no instance ``__dict__``, so
    no ad-hoc attributes. It is canonical: the constructor interns
    ``name``, ``route``, ``phase`` and every ``params`` / ``depends_on``
    name with :func:`sys.intern`, so every step's freshly formatted
    ``f"rack{r}"`` collapses to one shared string, and the vector
    kernel's signature checks meet equal fields as the same object. The
    constructor is written out rather than generated plus a
    ``__post_init__``, so that each field is checked and stored once.
    ``__reduce__`` rebuilds through that constructor, so a copied or
    unpickled record is validated and interned exactly like a built one
    (an unpickled string is not interned by itself), and pickling calls
    no per-record ``__getstate__``. Make a record with the constructor or
    :func:`dataclasses.replace`.

    Attributes
    ----------
    name:
        Tensor name, or ``"bucket:<i>"`` for a fused bucket, matching the
        engine's traffic accounting.
    params:
        Parameter names whose gradients this message carries. The
        scheduler uses them to look up gradient-ready times in the
        backward timeline; a fused bucket lists every member (the bucket
        transmits only once its *last* member's gradient exists).
    wire_bytes:
        Compressed payload bytes per copy on this record's route. For the
        ring this is the *per-link* volume (what one hop link carries over
        the whole collective), not the all-links sum.
    elements:
        Transmitted element count (used to apportion codec time).
    route:
        Link identifier the topology assigned (``"server"``,
        ``"shard<k>"``, ``"ring"``).
    worker:
        Sending worker id for pushes (compression pipelines are
        per-worker); ``None`` for shared pulls and collectives.
    copies:
        Fan-out multiplier: a shared pull traverses the server link once
        per subscribed worker.
    phase:
        One of :data:`PHASES`.
    frames:
        Wire frames behind this record (a fused bucket is one frame; a
        ring tensor is one frame per node per hop). Drives the per-frame
        protocol overhead and the per-frame link RTT.
    depends_on:
        Names of records (in the same step or update) whose *transfers*
        must complete before this record may enter its link queue — the
        hierarchical topology's tier coupling: a cross-rack push carries
        a rack-reduced gradient, so it depends on that rack's collective;
        an intra-rack broadcast depends on the cross-rack pull it
        redistributes. Empty for flat topologies.
    """

    name: str
    params: tuple[str, ...]
    wire_bytes: int
    elements: int
    route: str
    worker: int | None = None
    copies: int = 1
    phase: str = "push"
    frames: int = 1
    depends_on: tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        wire_bytes: int,
        elements: int,
        route: str,
        worker: int | None = None,
        copies: int = 1,
        phase: str = "push",
        frames: int = 1,
        depends_on: tuple[str, ...] = (),
    ) -> None:
        # Each rule tests the plain case inline and leaves anything else (a
        # numpy integer, a wrong type) to a helper that accepts it or
        # raises naming the field and the value.
        intern = sys.intern
        if type(name) is not str:
            raise ValueError(f"record: name must be a str, got {name!r}")
        name = intern(name)
        if type(route) is not str:
            raise ValueError(f"record {name!r}: route must be a str, got {route!r}")
        if phase not in PHASES:
            raise ValueError(
                f"record {name!r}: phase must be one of {PHASES}, got {phase!r}"
            )
        params = _names(name, "params", params)
        depends_on = _names(name, "depends_on", depends_on)
        if type(wire_bytes) is not int or wire_bytes < 0:
            _check_count(name, "wire_bytes", wire_bytes, 0)
        if type(elements) is not int or elements < 0:
            _check_count(name, "elements", elements, 0)
        if worker is not None and (type(worker) is not int or worker < 0):
            _check_count(name, "worker", worker, 0)
        if type(copies) is not int or copies < 1:
            _check_count(name, "copies", copies, 1)
        if type(frames) is not int or frames < 1:
            _check_count(name, "frames", frames, 1)
        if name in depends_on:
            raise ValueError(f"record {name!r}: record cannot depend on itself")
        store = object.__setattr__
        store(self, "name", name)
        store(self, "params", params)
        store(self, "wire_bytes", wire_bytes)
        store(self, "elements", elements)
        store(self, "route", intern(route))
        store(self, "worker", worker)
        store(self, "copies", copies)
        store(self, "phase", PHASES[PHASES.index(phase)])  # its interned literal
        store(self, "frames", frames)
        store(self, "depends_on", depends_on)

    def __reduce__(self):
        # Rebuild through the constructor: a copied or unpickled record is
        # validated and interned like a built one.
        return TransmissionRecord, (
            self.name, self.params, self.wire_bytes, self.elements, self.route,
            self.worker, self.copies, self.phase, self.frames, self.depends_on,
        )

    @property
    def total_bytes(self) -> int:
        """Bytes this record puts on its route (all copies)."""
        return self.wire_bytes * self.copies


@dataclass(frozen=True)
class StepTransmissions:
    """Everything the simulator needs to replay one training step.

    The codec components mirror the engine's critical-path convention: the
    recorded :attr:`~repro.network.traffic.StepTraffic.codec_seconds` is
    exactly ``push_compress + server_decompress + server_compress +
    pull_decompress``, so a serialized replay reproduces the analytic
    model's step time.
    """

    step: int
    compute_seconds: float
    push_compress_seconds: float = 0.0
    server_decompress_seconds: float = 0.0
    server_compress_seconds: float = 0.0
    pull_decompress_seconds: float = 0.0
    records: tuple[TransmissionRecord, ...] = ()
    #: Injected-fault outage floors: ``(route, seconds)`` pairs meaning
    #: the route is unavailable until ``seconds`` into *this step* (a
    #: rejoin delay while the fabric re-converges). All three simulator
    #: cores seed the route's link-free time from the floor.
    link_down: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _check_seconds(
            f"step {self.step}",
            self,
            (
                "compute_seconds",
                "push_compress_seconds",
                "server_decompress_seconds",
                "server_compress_seconds",
                "pull_decompress_seconds",
            ),
        )

    @property
    def codec_seconds(self) -> float:
        return (
            self.push_compress_seconds
            + self.server_decompress_seconds
            + self.server_compress_seconds
            + self.pull_decompress_seconds
        )

    @property
    def total_frames(self) -> int:
        return sum(r.frames for r in self.records)


@dataclass(frozen=True)
class UpdateTransmissions:
    """Everything the simulator needs to replay one async/SSP update.

    Event-driven modes have no global step: the scheduling quantum is one
    worker's push/apply/pull round-trip, so the engine records one event
    per *update* instead of one plan per step. Logical timestamps pin the
    event into the global order (``update`` is the commit index), the
    worker's virtual clock locates it in modelled time, and ``staleness``
    is the number of global model versions the pushed gradient was behind
    at commit — the quantity whose distribution the simulator reports.

    The codec components follow the engine's measurement convention:
    ``push_compress`` is the worker's compression of this update's pushes,
    ``server_seconds`` the server's decompress + apply, ``pull_compress``
    the server-side compression of this worker's individual delta stream,
    and ``pull_decompress`` the worker-side decode (zero when measured —
    the engine applies the compression result's reconstruction directly —
    and priced like any decode by a modeled clock).
    """

    #: Commit index in the global update order (logical timestamp).
    update: int
    worker: int
    #: The worker's local step index (0-based) this update corresponds to.
    local_step: int
    #: Global model version the push was applied at (pre-apply).
    global_step: int
    #: Global versions between this worker's last pull and this commit.
    staleness: int
    #: Worker virtual clock (straggler-scaled compute time accumulated by
    #: the engine) when the update was dispatched.
    clock_seconds: float
    compute_seconds: float
    push_compress_seconds: float = 0.0
    server_seconds: float = 0.0
    pull_compress_seconds: float = 0.0
    pull_decompress_seconds: float = 0.0
    records: tuple[TransmissionRecord, ...] = ()
    #: Injected-fault outage floors: ``(route, seconds)`` pairs. For a
    #: direct event stream the floor is *absolute* simulated time; when
    #: updates are folded back into lock-step generations the floors
    #: become step-local (max-merged per route), matching
    #: :attr:`StepTransmissions.link_down`.
    link_down: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.staleness < 0:
            raise ValueError(f"update {self.update}: negative staleness")
        _check_seconds(
            f"update {self.update}",
            self,
            (
                "clock_seconds",
                "compute_seconds",
                "push_compress_seconds",
                "server_seconds",
                "pull_compress_seconds",
                "pull_decompress_seconds",
            ),
        )

    @property
    def codec_seconds(self) -> float:
        return (
            self.push_compress_seconds
            + self.server_seconds
            + self.pull_compress_seconds
            + self.pull_decompress_seconds
        )

    @cached_property
    def push_records(self) -> tuple[TransmissionRecord, ...]:
        # Cached: the event loop indexes into this tuple once per push
        # arrival, and the records tuple is immutable.
        return tuple(r for r in self.records if r.phase in ("push", "collective"))

    @cached_property
    def pull_records(self) -> tuple[TransmissionRecord, ...]:
        return tuple(r for r in self.records if r.phase == "pull")

    @property
    def total_frames(self) -> int:
        return sum(r.frames for r in self.records)


def updates_from_bsp_steps(
    steps, num_workers: int
) -> tuple[UpdateTransmissions, ...]:
    """Reshape a BSP recording into the lock-step update stream that an
    SSP system at ``staleness=0`` would execute.

    Each BSP step becomes one update per worker: push records keep their
    recorded sending worker (collective records, which have none, ride
    with worker 0), every worker receives one copy of each shared pull,
    and the serialized server costs are split evenly so regrouping the
    generation reproduces the step's totals exactly. This is the bridge
    the staleness-0 parity test walks: feeding the result to the
    event-driven scheduler must reproduce the BSP schedule.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    updates: list[UpdateTransmissions] = []
    for local_step, st in enumerate(steps):
        for worker in range(num_workers):
            records: list[TransmissionRecord] = []
            for r in st.records:
                if r.phase == "pull":
                    if r.frames < r.copies:
                        raise ValueError(
                            f"pull record {r.name!r} has {r.frames} frames "
                            f"for {r.copies} copies; cannot split one "
                            "physical copy per worker"
                        )
                    if worker < r.copies:
                        # Conserve the frame total across the split so the
                        # regrouped generation pays identical per-frame
                        # overhead (remainder frames ride the first copies).
                        frames = r.frames // r.copies + (
                            1 if worker < r.frames % r.copies else 0
                        )
                        records.append(replace(r, copies=1, frames=frames))
                elif (r.worker if r.worker is not None else 0) == worker:
                    records.append(r)
            updates.append(
                UpdateTransmissions(
                    update=local_step * num_workers + worker,
                    worker=worker,
                    local_step=local_step,
                    global_step=local_step,
                    staleness=0,
                    clock_seconds=0.0,
                    compute_seconds=st.compute_seconds,
                    push_compress_seconds=st.push_compress_seconds,
                    server_seconds=st.server_decompress_seconds / num_workers,
                    pull_compress_seconds=st.server_compress_seconds / num_workers,
                    pull_decompress_seconds=st.pull_decompress_seconds,
                    records=tuple(records),
                    link_down=st.link_down,
                )
            )
    return tuple(updates)


@dataclass(frozen=True)
class SimulatedStep:
    """Simulator output for one step — the honest counterpart of the
    analytic model's ``step_seconds``.

    ``achieved_overlap`` is expressed in the analytic model's own units:
    the fraction of (scaled) compute time under which communication
    actually hid, i.e. the value that makes ``compute + codec +
    max(0, comm - overlap * compute) + overhead`` reproduce the simulated
    step time. Feeding it back into a :class:`StepTimeModel` replaces the
    calibrated 0.9 constant with a measured quantity.
    """

    step: int
    step_seconds: float
    serialized_seconds: float
    compute_seconds: float
    codec_seconds: float
    comm_seconds: float
    overhead_seconds: float
    exposed_seconds: float
    achieved_overlap: float
    link_utilization: dict[str, float] = field(default_factory=dict)
    critical_path: tuple[str, ...] = ()

    @property
    def hidden_seconds(self) -> float:
        """Communication time that ran concurrently with other work."""
        return max(0.0, self.comm_seconds - self.exposed_seconds)

    @property
    def hidden_fraction(self) -> float:
        """Share of communication that did not extend the step.

        ``achieved_overlap`` saturates at 1 whenever more than a full
        compute-pass worth of communication hides (comm-bound regimes);
        this fraction keeps discriminating there — it is what the barrier
        granularity benchmark sweeps.
        """
        if self.comm_seconds <= 0:
            return 0.0
        return self.hidden_seconds / self.comm_seconds

    @property
    def overlap_speedup(self) -> float:
        """Serialized step time over overlapped step time (>= 1)."""
        if self.step_seconds <= 0:
            return 1.0
        return self.serialized_seconds / self.step_seconds


@dataclass(frozen=True)
class SimulatedRun:
    """Aggregate of simulated steps over one training run."""

    steps: tuple[SimulatedStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a simulated run needs at least one step")

    @property
    def total_seconds(self) -> float:
        return sum(s.step_seconds for s in self.steps)

    @property
    def mean_step_seconds(self) -> float:
        return self.total_seconds / len(self.steps)

    @property
    def mean_overlap(self) -> float:
        return sum(s.achieved_overlap for s in self.steps) / len(self.steps)

    @property
    def mean_hidden_fraction(self) -> float:
        return sum(s.hidden_fraction for s in self.steps) / len(self.steps)

    @property
    def mean_link_utilization(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for step in self.steps:
            for link_id, utilization in step.link_utilization.items():
                totals[link_id] = totals.get(link_id, 0.0) + utilization
        return {k: v / len(self.steps) for k, v in totals.items()}


@dataclass(frozen=True)
class SimulatedUpdate:
    """Simulator output for one async/SSP update: where it sat on the
    modelled timeline and how stale its gradient was."""

    update: int
    worker: int
    #: When the worker began computing the gradient (after any SSP gate).
    start_seconds: float
    #: When the server applied the push (the global commit point).
    commit_seconds: float
    #: When the worker had decoded its pull and could proceed.
    done_seconds: float
    staleness: int


@dataclass(frozen=True)
class SimulatedExchange:
    """Aggregate of one event-driven (async/SSP) simulated run.

    ``achieved_overlap`` is the *measured* fraction of link-busy time that
    ran concurrently with some worker's backward pass — the event-driven
    counterpart of :attr:`SimulatedStep.hidden_fraction` (per-worker
    compute has no single denominator once workers free-run, so the
    communication-normalized fraction is the honest report).
    ``serialized_seconds`` is the one-global-chain baseline (every
    compute, codec, and transfer strictly sequential), so the ratio to
    ``total_seconds`` measures what asynchrony plus overlap bought.
    """

    updates: tuple[SimulatedUpdate, ...]
    total_seconds: float
    compute_seconds: float
    codec_seconds: float
    comm_seconds: float
    overhead_seconds: float
    serialized_seconds: float
    achieved_overlap: float
    link_utilization: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.updates:
            raise ValueError("a simulated exchange needs at least one update")

    @property
    def mean_update_seconds(self) -> float:
        return self.total_seconds / len(self.updates)

    @property
    def updates_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return len(self.updates) / self.total_seconds

    @property
    def per_worker_updates(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for u in self.updates:
            counts[u.worker] = counts.get(u.worker, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def per_worker_throughput(self) -> dict[int, float]:
        """Committed updates per simulated second, per worker."""
        if self.total_seconds <= 0:
            return {w: 0.0 for w in self.per_worker_updates}
        return {
            worker: count / self.total_seconds
            for worker, count in self.per_worker_updates.items()
        }

    @property
    def staleness_histogram(self) -> dict[int, int]:
        """Effective staleness distribution over committed updates."""
        histogram: dict[int, int] = {}
        for u in self.updates:
            histogram[u.staleness] = histogram.get(u.staleness, 0) + 1
        return dict(sorted(histogram.items()))

    @property
    def mean_staleness(self) -> float:
        return sum(u.staleness for u in self.updates) / len(self.updates)

    @property
    def max_staleness(self) -> int:
        return max(u.staleness for u in self.updates)

    @property
    def overlap_speedup(self) -> float:
        """Serialized chain time over event-driven wall time (>= 1)."""
        if self.total_seconds <= 0:
            return 1.0
        return self.serialized_seconds / self.total_seconds
