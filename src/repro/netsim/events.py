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
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral, Real
from operator import attrgetter
from weakref import WeakValueDictionary

import numpy as np

__all__ = [
    "TransmissionRecord",
    "SkeletonRow",
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
    field and every ``link_down`` floor must be a finite real number >= 0
    (not a ``bool``), and ``link_down`` a tuple of ``(str, seconds)`` pairs."""
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
        if (isinstance(value, bool) or not isinstance(value, Real)
                or not 0.0 <= value < math.inf):
            raise ValueError(f"{owner}: {name} must be finite and >= 0, got {value!r}")


def _check_count(owner: str, field_name: str, value, minimum: int) -> None:
    """Refuse anything but an integer (``bool`` excluded) >= ``minimum``;
    the error names ``owner`` (a record or a plan) and the field."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"{owner}: {field_name} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True, slots=True, init=False)
class TransmissionRecord:
    """One wire transmission within a training step.

    The validated row type and the view of a plan's rows: a plan checks
    each distinct structure once through this constructor and rebuilds
    records from its columns on request. Slotted, so no ad-hoc
    attributes; canonical, since the constructor (written out, so each
    field is checked and stored once) interns ``name``, ``route``,
    ``phase`` and every ``params`` / ``depends_on`` name, so equal names
    meet as one object. ``__reduce__`` rebuilds through the constructor,
    so a copied or unpickled record is validated and interned like a
    built one. Make a record with the constructor or
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


#: The rows of a plan's ``numbers`` array, and each row's least value.
NUMBER_ROWS = ("wire_bytes", "elements", "copies", "frames")
_MINIMA = np.array([[0], [0], [1], [1]])
_STRUCTURE = ("name", "phase", "route", "worker", "params", "depends_on")
#: One skeleton row: a record's structure without its numbers.
SkeletonRow = namedtuple("SkeletonRow", _STRUCTURE)
_numbers_of = attrgetter(*NUMBER_ROWS)


class StepSkeleton:
    """A plan's records without their numbers: six ``columns`` (names,
    phases, routes, workers, params, depends_on) in record order, also
    read as named ``rows``. Every plan built in this process holds the one
    live skeleton of its structure, so equal structures share one object
    (a replay group is a run of steps holding one; the array kernel's
    ``RecordBatch`` rides ``batch``). Pickling carries only the columns:
    pickle's memo keeps the sharing within a dump, each load builds its
    own skeletons, and the first plan holding one runs :meth:`check`.
    """

    __slots__ = ("columns", "checked", "batch", "_rows", "__weakref__")

    def __init__(self, columns) -> None:
        self.columns, self.checked, self.batch, self._rows = columns, False, None, None

    def __reduce__(self):
        return StepSkeleton, (self.columns,)

    @property
    def rows(self) -> tuple:
        """The records' structure as named rows (built on first use)."""
        if self._rows is None:
            self._rows = tuple(map(SkeletonRow, *self.columns))
        return self._rows

    def check(self, owner: str) -> None:
        """Validate the columns (once) through the record constructor and
        intern them, storing equal ``params`` and ``depends_on`` tuples
        once; an error names ``owner`` and the record."""
        if self.checked:
            return
        columns = self.columns
        if (type(columns) is not tuple or tuple(map(type, columns)) != (tuple,) * 6
                or len(set(map(len, columns))) != 1):
            raise ValueError(f"{owner}: skeleton columns must be six equal-length "
                             f"tuples, got {columns!r}")
        try:
            records = [
                TransmissionRecord(name, params, 0, 0, route, worker, 1, phase, 1, deps)
                for name, phase, route, worker, params, deps in zip(*columns)
            ]
        except ValueError as error:
            raise ValueError(f"{owner}: {error}") from None
        shared: dict = {}
        self.columns = tuple(
            tuple(map(attrgetter(f), records)) if f not in ("params", "depends_on")
            else tuple(shared.setdefault(v, v) for v in map(attrgetter(f), records))
            for f in _STRUCTURE
        )
        self.checked = True


#: Every live built skeleton, by its columns: a plan of equal structure
#: holds that one, already checked. Loads never consult it.
_SKELETONS: WeakValueDictionary = WeakValueDictionary()


class _Plan:
    """A recorded step's or update's storage (recordings are most of a
    sweep's memory): a :class:`StepSkeleton` and ``numbers``, one
    read-only ``(4, n)`` int64 array of the :data:`NUMBER_ROWS` in record
    order. ``records`` rebuilds the records on every access, for the
    scalar reference and callers outside this package; cache nothing on
    a plan. :meth:`_of` is the one construction path — the engine's
    ledger, the records constructors and readers that re-cut plans all
    build through it — so a structure is validated and interned once,
    when its skeleton is first built; unpickling checks the same way.
    A subclass names its fields in ``_FIELDS`` (pickle order; the ones
    its constructor does not require are seconds defaulting to 0.0), its
    seconds in ``_SECONDS`` and its codec sides in ``CODEC_FIELDS``; its
    slots are ``_FIELDS``, then ``skeleton``, ``numbers``, ``link_down``.
    """

    __slots__ = ()

    @classmethod
    def _of(cls, columns, numbers, link_down=(), **fields):
        """A plan of structure ``columns`` (names, phases, routes, workers,
        params, depends_on; ``()`` for no records) and their ``numbers``
        (a ``(4, n)`` int64 array, or four ints per record in order)."""
        values = [fields.get(name, 0.0) for name in cls._FIELDS]
        owner = cls._owner(*values)
        columns = columns or ((),) * len(_STRUCTURE)
        skeleton = _SKELETONS.get(columns)
        if skeleton is None:
            skeleton = StepSkeleton(columns)
            skeleton.check(owner)
            _SKELETONS[skeleton.columns] = skeleton
        if type(numbers) is not np.ndarray:
            try:
                numbers = np.fromiter(numbers, np.int64)
            except OverflowError:
                raise ValueError(f"{owner}: a record size overflows int64") from None
            numbers = np.ascontiguousarray(numbers.reshape(-1, len(NUMBER_ROWS)).T)
        return cls._load(*values, skeleton, numbers, link_down)

    @classmethod
    def _from_records(cls, values, records, link_down):
        """:meth:`_of` from a records constructor's ``values`` and records."""
        owner = cls._owner(*values)
        if type(records) is not tuple:
            raise ValueError(f"{owner}: records must be a tuple, got {records!r}")
        for index, r in enumerate(records):
            if type(r) is not TransmissionRecord:
                raise ValueError(f"{owner}: records[{index}] is not a record: {r!r}")
        columns = tuple(tuple(map(attrgetter(f), records)) for f in _STRUCTURE)
        numbers = chain.from_iterable(map(_numbers_of, records))
        return cls._of(columns, numbers, link_down, **dict(zip(cls._FIELDS, values)))

    @classmethod
    def _load(cls, *state):
        """The plan of ``state`` (slot order), its columns and seconds checked:
        the end of :meth:`_of`, and how a pickled plan is rebuilt."""
        owner, skeleton, numbers = cls._owner(*state), state[-3], state[-2]
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
        plan = object.__new__(cls)
        for name, value in zip(cls.__slots__, state):
            object.__setattr__(plan, name, value)
        _check_seconds(owner, plan, cls._SECONDS)
        return plan

    def __reduce__(self):
        return self._load, tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        values = (getattr(self, name) for name in self._FIELDS)
        return (*values, self.link_down, self.skeleton.columns, self.numbers.tobytes())

    @property
    def records(self) -> tuple[TransmissionRecord, ...]:
        """The plan's records, rebuilt from the columns on every access."""
        return tuple(
            TransmissionRecord(name, params, w, e, route, worker, c, phase, f, deps)
            for name, phase, route, worker, params, deps, w, e, c, f in zip(
                *self.skeleton.columns, *self.numbers.tolist()
            )
        )

    @property
    def codec_seconds(self) -> float:
        a, b, c, d = (getattr(self, f) for side in self.CODEC_FIELDS for f in side)
        return a + b + c + d


@dataclass(frozen=True, init=False, eq=False)
class StepTransmissions(_Plan):
    """Everything the simulator needs to replay one training step, stored
    as columns (see ``_Plan``).

    The codec components mirror the engine's critical-path convention: the
    recorded :attr:`~repro.network.traffic.StepTraffic.codec_seconds` is
    exactly ``push_compress + server_decompress + server_compress +
    pull_decompress``, so a serialized replay reproduces the analytic
    model's step time.
    """

    _FIELDS = ("step", "compute_seconds", "push_compress_seconds",
               "server_decompress_seconds", "server_compress_seconds",
               "pull_decompress_seconds")
    _SECONDS = _FIELDS[1:]
    CODEC_FIELDS = (_FIELDS[2:4], _FIELDS[4:])
    __slots__ = (*_FIELDS, "skeleton", "numbers", "link_down")

    step: int
    compute_seconds: float
    push_compress_seconds: float
    server_decompress_seconds: float
    server_compress_seconds: float
    pull_decompress_seconds: float
    records: tuple[TransmissionRecord, ...]  # a view
    #: Injected-fault outage floors: ``(route, seconds)`` pairs meaning
    #: the route is unavailable until ``seconds`` into *this step* (a
    #: rejoin delay while the fabric re-converges). All three simulator
    #: cores seed the route's link-free time from the floor.
    link_down: tuple[tuple[str, float], ...]

    def __new__(
        cls, step, compute_seconds, push_compress_seconds=0.0,
        server_decompress_seconds=0.0, server_compress_seconds=0.0,
        pull_decompress_seconds=0.0, records=(), link_down=(),
    ):
        return cls._from_records((
            step, compute_seconds, push_compress_seconds, server_decompress_seconds,
            server_compress_seconds, pull_decompress_seconds,
        ), records, link_down)

    @staticmethod
    def _owner(step, *_) -> str:
        _check_count("StepTransmissions", "step", step, 0)
        return f"step {step}"


@dataclass(frozen=True, init=False, eq=False)
class UpdateTransmissions(_Plan):
    """Everything the simulator needs to replay one async/SSP update,
    stored as columns like a step.

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

    _FIELDS = ("update", "worker", "local_step", "global_step", "staleness",
               "clock_seconds", "compute_seconds", "push_compress_seconds",
               "server_seconds", "pull_compress_seconds", "pull_decompress_seconds")
    _SECONDS = _FIELDS[5:]
    CODEC_FIELDS = (_FIELDS[7:9], _FIELDS[9:])
    __slots__ = (*_FIELDS, "skeleton", "numbers", "link_down")

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
    push_compress_seconds: float
    server_seconds: float
    pull_compress_seconds: float
    pull_decompress_seconds: float
    records: tuple[TransmissionRecord, ...]  # a view
    #: Injected-fault outage floors: ``(route, seconds)`` pairs. For a
    #: direct event stream the floor is *absolute* simulated time; when
    #: updates are folded back into lock-step generations the floors
    #: become step-local (max-merged per route), matching
    #: :attr:`StepTransmissions.link_down`.
    link_down: tuple[tuple[str, float], ...]

    def __new__(
        cls, update, worker, local_step, global_step, staleness, clock_seconds,
        compute_seconds, push_compress_seconds=0.0, server_seconds=0.0,
        pull_compress_seconds=0.0, pull_decompress_seconds=0.0, records=(),
        link_down=(),
    ):
        return cls._from_records((
            update, worker, local_step, global_step, staleness, clock_seconds,
            compute_seconds, push_compress_seconds, server_seconds,
            pull_compress_seconds, pull_decompress_seconds,
        ), records, link_down)

    @classmethod
    def _owner(cls, update, *counts) -> str:
        _check_count("UpdateTransmissions", "update", update, 0)
        for name, value in zip(cls._FIELDS[1:5], counts):
            _check_count(f"update {update}", name, value, 0)
        return f"update {update}"


def updates_from_bsp_steps(
    steps, num_workers: int
) -> tuple[UpdateTransmissions, ...]:
    """Reshape a BSP recording into the lock-step update stream that an
    SSP system at ``staleness=0`` would execute.

    Each BSP step becomes one update per worker: push records keep their
    recorded sending worker (collective records, which have none, ride
    with worker 0), each of a shared pull's ``copies`` goes to one of the
    first ``copies`` workers with its share of the frames, and the
    serialized server costs are split evenly, so regrouping the
    generation reproduces the step's totals — bytes and frames included —
    exactly. A record the split cannot carry whole (a pull with more
    copies than workers or fewer frames than copies, a push from a worker
    past ``num_workers``) is refused, naming the record. This is the
    bridge the staleness-0 parity test walks: feeding the result to the
    event-driven scheduler must reproduce the BSP schedule.
    """
    _check_count("updates_from_bsp_steps", "num_workers", num_workers, 1)
    updates: list[UpdateTransmissions] = []
    for local_step, st in enumerate(steps):
        rows = st.skeleton.rows
        _, _, copies, frames = st.numbers
        pull = np.array([r.phase == "pull" for r in rows], dtype=bool)
        sender = np.array([-1 if r.phase == "pull" else r.worker or 0 for r in rows])
        for refused, message in (
            (pull & (frames < copies), "pull record {name!r} has {f} frames for "
             "{c} copies; cannot split one physical copy per worker"),
            (pull & (copies > num_workers), "step {step}: record {name!r}: {c} "
             "copies cannot split over num_workers={n}"),
            (sender >= num_workers, "step {step}: record {name!r}: sent by worker "
             "{w}, past num_workers={n}"),
        ):
            for i in np.flatnonzero(refused)[:1]:
                raise ValueError(message.format(
                    name=rows[i].name, f=frames[i], c=copies[i], w=sender[i],
                    step=st.step, n=num_workers,
                ))
        for worker in range(num_workers):
            take = np.flatnonzero((sender == worker) | (pull & (copies > worker)))
            numbers = st.numbers.take(take, axis=1)
            split = pull[take]
            shared, total = copies[take][split], frames[take][split]
            # Remainder frames ride the first copies.
            numbers[3, split] = total // shared + (worker < total % shared)
            numbers[2, split] = 1
            updates.append(UpdateTransmissions._of(
                tuple(zip(*[rows[i] for i in take.tolist()])), numbers, st.link_down,
                update=local_step * num_workers + worker, worker=worker,
                local_step=local_step, global_step=local_step, staleness=0,
                compute_seconds=st.compute_seconds,
                push_compress_seconds=st.push_compress_seconds,
                server_seconds=st.server_decompress_seconds / num_workers,
                pull_compress_seconds=st.server_compress_seconds / num_workers,
                pull_decompress_seconds=st.pull_decompress_seconds,
            ))
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
