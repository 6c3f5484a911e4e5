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
from itertools import chain
from numbers import Integral
from operator import attrgetter, ne

import numpy as np

__all__ = [
    "TransmissionRecord",
    "StepSkeleton",
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
    field and every ``link_down`` floor must be a finite number >= 0 (not
    a ``bool``), and ``link_down`` a tuple of ``(str, seconds)`` pairs."""
    values = [(f, getattr(plan, f)) for f in fields]
    down = plan.link_down
    for pair in down if type(down) is tuple else (down,):
        if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not str:
            raise ValueError(
                f"{owner}: link_down must be a tuple of (str, seconds) pairs, "
                f"got {down!r}"
            )
        values.append((f"link_down[{pair[0]!r}]", pair[1]))
    for name, value in values:
        if isinstance(value, bool) or not 0.0 <= value < math.inf:
            raise ValueError(f"{owner}: {name} must be finite and >= 0, got {value!r}")


def _check_count(owner: str, field_name: str, value, minimum: int) -> None:
    """Refuse anything but an integer (``bool`` excluded) >= ``minimum``;
    the error names ``owner`` (a record or a plan) and the field."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"{owner}: {field_name} must be an integer >= {minimum}, got {value!r}"
        )


def _check_records(owner: str, records) -> None:
    """Refuse a plan's ``records`` unless it is a tuple of records."""
    if type(records) is not tuple:
        raise ValueError(f"{owner}: records must be a tuple, got {records!r}")
    for index, r in enumerate(records):
        if type(r) is not TransmissionRecord:
            raise ValueError(f"{owner}: records[{index}] is not a record: {r!r}")


@dataclass(frozen=True, slots=True, init=False)
class TransmissionRecord:
    """One wire transmission within a training step.

    The validated row type: a :class:`StepTransmissions` is built from
    records and viewed as records, though it stores them as columns. It
    is slotted: no instance ``__dict__``, so no ad-hoc attributes. It is
    canonical: the constructor interns ``name``, ``route``, ``phase`` and
    every ``params`` / ``depends_on`` name with :func:`sys.intern`, so
    every step's freshly formatted ``f"rack{r}"`` collapses to one shared
    string and skeleton comparisons meet equal names as one object. The
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
        self, name, params, wire_bytes, elements, route, worker=None, copies=1,
        phase="push", frames=1, depends_on=(),
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
            _check_count(f"record {name!r}", "wire_bytes", wire_bytes, 0)
        if type(elements) is not int or elements < 0:
            _check_count(f"record {name!r}", "elements", elements, 0)
        if worker is not None and (type(worker) is not int or worker < 0):
            _check_count(f"record {name!r}", "worker", worker, 0)
        if type(copies) is not int or copies < 1:
            _check_count(f"record {name!r}", "copies", copies, 1)
        if type(frames) is not int or frames < 1:
            _check_count(f"record {name!r}", "frames", frames, 1)
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


#: The rows of a step's ``numbers`` array, and each row's least value.
NUMBER_ROWS = ("wire_bytes", "elements", "copies", "frames")
_MINIMA = np.array([[0], [0], [1], [1]])
_STRUCTURE = ("name", "phase", "route", "worker", "params", "depends_on")
_structure_of = attrgetter(*_STRUCTURE)
_numbers_of = attrgetter(*NUMBER_ROWS)


class StepSkeleton:
    """A step's records without their numbers: six ``columns`` (names,
    phases, routes, workers, params, depends_on) in record order, shared
    by consecutive steps of equal structure (the array kernel's replay
    groups; its ``RecordBatch`` rides ``batch``). Pickling carries only
    the columns, so pickle's memo keeps the sharing within a dump, each
    load builds its own skeleton, and the first step holding it runs
    :meth:`check`.
    """

    __slots__ = ("columns", "checked", "batch")

    def __init__(self, columns) -> None:
        self.columns, self.checked, self.batch = columns, False, None

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepSkeleton):
            return NotImplemented
        return self is other or self.columns == other.columns

    def __reduce__(self):
        return StepSkeleton, (self.columns,)

    @classmethod
    def of(cls, records) -> StepSkeleton:
        """The (checked) skeleton of validated records; equal ``params``
        and ``depends_on`` tuples are stored once."""
        shared: dict = {}
        skeleton = cls(tuple(
            tuple(map(attrgetter(f), records)) if f not in ("params", "depends_on")
            else tuple(shared.setdefault(v, v) for v in map(attrgetter(f), records))
            for f in _STRUCTURE
        ))
        skeleton.checked = True
        return skeleton

    def check(self, owner: str) -> None:
        """Validate the columns (once) through the record constructor; an
        error names ``owner`` and the record."""
        if self.checked:
            return
        columns = self.columns
        if (type(columns) is not tuple or tuple(map(type, columns)) != (tuple,) * 6
                or len(set(map(len, columns))) != 1):
            raise ValueError(f"{owner}: skeleton columns must be six equal-length "
                             f"tuples, got {columns!r}")
        for name, phase, route, worker, params, deps in zip(*columns):
            try:
                TransmissionRecord(name, params, 0, 0, route, worker, 1, phase, 1, deps)
            except ValueError as error:
                raise ValueError(f"{owner}: {error}") from None
        self.checked = True


#: The last built step's skeleton, which the next step reuses when equal
#: (a skeleton is a value, safe to share). Unpickling never consults it.
_last_skeleton: StepSkeleton | None = None


@dataclass(frozen=True, init=False, eq=False)
class StepTransmissions:
    """Everything the simulator needs to replay one training step.

    The codec components mirror the engine's critical-path convention: the
    recorded :attr:`~repro.network.traffic.StepTraffic.codec_seconds` is
    exactly ``push_compress + server_decompress + server_compress +
    pull_decompress``, so a serialized replay reproduces the analytic
    model's step time.

    A step is built from ``records`` but stores columns, since recordings
    are most of a sweep's memory: a :class:`StepSkeleton` (the previous
    built step's when equal) and ``numbers``, one read-only ``(4, n)``
    int64 array of the :data:`NUMBER_ROWS` in record order. ``records``
    rebuilds the records on each access. Building, copying or unpickling
    refuses whatever a record would, naming the step and the record.
    """

    step: int
    compute_seconds: float
    push_compress_seconds: float = 0.0
    server_decompress_seconds: float = 0.0
    server_compress_seconds: float = 0.0
    pull_decompress_seconds: float = 0.0
    records: tuple[TransmissionRecord, ...]  # a view: the property below
    #: Injected-fault outage floors: ``(route, seconds)`` pairs meaning
    #: the route is unavailable until ``seconds`` into *this step* (a
    #: rejoin delay while the fabric re-converges). All three simulator
    #: cores seed the route's link-free time from the floor.
    link_down: tuple[tuple[str, float], ...] = ()
    skeleton: StepSkeleton = field(init=False, repr=False)
    numbers: np.ndarray = field(init=False, repr=False)

    def __init__(
        self, step, compute_seconds, push_compress_seconds=0.0,
        server_decompress_seconds=0.0, server_compress_seconds=0.0,
        pull_decompress_seconds=0.0, records=(), link_down=(),
    ) -> None:
        global _last_skeleton
        owner = _step_owner(step)
        _check_records(owner, records)
        last = _last_skeleton
        if last is None or len(last.columns[0]) != len(records) or any(
            map(ne, zip(*last.columns), map(_structure_of, records))
        ):
            _last_skeleton = StepSkeleton.of(records)
        try:
            numbers = np.fromiter(
                chain.from_iterable(map(_numbers_of, records)), np.int64
            )
        except OverflowError:
            raise ValueError(f"{owner}: a record size overflows int64") from None
        self._store(
            owner, step, compute_seconds, push_compress_seconds,
            server_decompress_seconds, server_compress_seconds,
            pull_decompress_seconds, _last_skeleton,
            np.ascontiguousarray(numbers.reshape(-1, len(NUMBER_ROWS)).T), link_down,
        )

    def _store(self, owner: str, *values) -> None:
        """Check the columns — refusing what a record would, naming it —
        and the seconds, then set every field."""
        skeleton, numbers = values[6:8]
        if type(skeleton) is not StepSkeleton:
            raise ValueError(f"{owner}: not a skeleton: {skeleton!r}")
        skeleton.check(owner)
        shape = (len(NUMBER_ROWS), len(skeleton.columns[0]))
        if not (type(numbers) is np.ndarray and numbers.dtype == np.int64
                and numbers.shape == shape):
            raise ValueError(f"{owner}: numbers must be {shape} int64, got {numbers!r}")
        low = numbers < _MINIMA
        if low.any():
            index, row = np.argwhere(low.T)[0]
            raise ValueError(
                f"{owner}: record {skeleton.columns[0][index]!r}: {NUMBER_ROWS[row]} "
                f"must be an integer >= {_MINIMA[row, 0]}, got {numbers[row, index]}"
            )
        numbers.flags.writeable = False
        for name, value in zip(_STEP_STATE, values):
            object.__setattr__(self, name, value)
        _check_seconds(owner, self, _STEP_STATE[1:6])

    def __reduce__(self):
        return _load_step, tuple(getattr(self, name) for name in _STEP_STATE)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        seconds = (getattr(self, name) for name in _STEP_STATE[:6])
        return (*seconds, self.link_down, self.skeleton.columns, self.numbers.tobytes())

    @property
    def records(self) -> tuple[TransmissionRecord, ...]:
        """The step's records, rebuilt from the columns on every access."""
        return tuple(
            TransmissionRecord(name, params, w, e, route, worker, c, phase, f, deps)
            for name, phase, route, worker, params, deps, w, e, c, f in zip(
                *self.skeleton.columns, *self.numbers.tolist()
            )
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
        return int(self.numbers[3].sum())


#: What a step stores and pickles, in order.
_STEP_STATE = ("step", "compute_seconds", "push_compress_seconds",
               "server_decompress_seconds", "server_compress_seconds",
               "pull_decompress_seconds", "skeleton", "numbers", "link_down")


def _step_owner(step) -> str:
    _check_count("StepTransmissions", "step", step, 0)
    return f"step {step}"


def _load_step(step, *values) -> StepTransmissions:
    """Rebuild a pickled step from its columns, checked like a built one."""
    st = object.__new__(StepTransmissions)
    st._store(_step_owner(step), step, *values)
    return st


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
        _check_count("UpdateTransmissions", "update", self.update, 0)
        owner = f"update {self.update}"
        for name in ("worker", "local_step", "global_step", "staleness"):
            _check_count(owner, name, getattr(self, name), 0)
        _check_records(owner, self.records)
        _check_seconds(owner, self, (
            "clock_seconds", "compute_seconds", "push_compress_seconds",
            "server_seconds", "pull_compress_seconds", "pull_decompress_seconds",
        ))

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
        step_records = st.records
        for worker in range(num_workers):
            records: list[TransmissionRecord] = []
            for r in step_records:
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
    def max_staleness(self) -> int:
        return max(u.staleness for u in self.updates)

    @property
    def overlap_speedup(self) -> float:
        """Serialized chain time over event-driven wall time (>= 1)."""
        if self.total_seconds <= 0:
            return 1.0
        return self.serialized_seconds / self.total_seconds
