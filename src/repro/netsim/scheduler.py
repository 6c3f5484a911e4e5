"""The discrete-event step scheduler.

One training step is replayed as a timeline:

1. **Backward** runs layer by layer in reverse registration order; the
   per-layer durations come from a measured
   :class:`~repro.nn.stats.BackwardTimeline`, rescaled so their sum equals
   the step's recorded compute seconds (times the hardware-substitution
   ``compute_scale``). A parameter's gradient exists when its layer's
   slice of the timeline completes.
2. **Push compression** is a serial pipeline per worker: each record costs
   its element-share of the step's measured push-compression seconds, and
   a fused bucket waits for its *last* member gradient before entering the
   pipeline.
3. **Transmission** is FIFO per link: a record starts when it is
   compressed *and* its route's link is free, and occupies the link for
   its transfer time plus its frames' protocol overhead and per-frame
   link RTT. Records with ``depends_on`` (the hierarchical topology's
   tier coupling) additionally wait for the named records' transfers:
   with overlap they pipeline per record (a rack's cross push leaves as
   soon as *that* rack's collective lands), serialized they wait for the
   whole previous tier — which is what makes the serialized schedule
   equal the analytic per-tier sum.
4. The **server phase** (decompress + update + pull compress) starts once
   compute and every push have finished; **pulls** then traverse their
   links (fan-out copies included, dependency tiers in order) and workers
   decompress.

With ``overlap=False`` the schedule is fully serialized — compute, then
all codec, then all transfers — which by construction reproduces the
analytic :class:`~repro.network.timing.StepTimeModel` closed form at
``overlap=0``: the equality is the simulator's calibration test, and the
delta between the two schedules is the honest measure of what per-layer
barriers buy.
"""

from __future__ import annotations

import heapq
import numbers
from collections import deque, namedtuple
from dataclasses import replace
from itertools import chain, count

from repro.netsim.events import (
    SimulatedExchange,
    SimulatedRun,
    SimulatedStep,
    SimulatedUpdate,
    StepTransmissions,
    TransmissionRecord,
    UpdateTransmissions,
)
from repro.netsim.links import LinkModel
from repro.netsim.vector import (
    _utilization,
    dependency_waves,
    phase_partition,
    replay_run_vectorized,
    structure_groups,
    wire_occupancy_batch,
)
from repro.network.timing import StepTimeModel
from repro.nn.stats import BackwardTimeline

#: What :func:`~repro.netsim.vector.wire_occupancy_batch` reads of a record.
_Sent = namedtuple("_Sent", "route total_bytes frames")

__all__ = [
    "PRIORITIES",
    "NetworkSimulator",
    "EventDrivenSimulator",
    "wire_occupancy_seconds",
    "per_tier_serialized_seconds",
]

#: Service orders within a transmission wave (``priority``):
#: "registration" (record order) or "smallest" (fewest elements first).
PRIORITIES = ("registration", "smallest")


def wire_occupancy_seconds(
    link_model: LinkModel, time_model: StepTimeModel, record: TransmissionRecord
) -> float:
    """Time one record holds its link: transfer plus per-frame protocol
    overhead plus per-frame link RTT."""
    spec = link_model.spec(record.route)
    return (
        spec.transfer_seconds(record.total_bytes)
        + (time_model.per_message_overhead + spec.rtt_seconds) * record.frames
    )


def per_tier_serialized_seconds(
    st: StepTransmissions,
    link_model: LinkModel,
    time_model: StepTimeModel,
) -> float:
    """The analytic two-tier closed form for one hierarchical step at
    ``overlap=0``: tiers are fully staged, channels within one tier run
    in parallel (max over routes), transfers on one channel serialize
    (sum per route) — compute + push codec + intra collectives + cross
    pushes + server codec + cross pulls + intra broadcasts + pull codec.

    The serialized dependency-wave replay reproduces this exactly; the
    equality (to 1e-9) is the hierarchical calibration test, shared by
    ``tests/netsim/test_hier_sim.py`` and the ledger row ``hier.closed_form``.
    """

    # The four tiers in one pass over the columns (pulls split on having
    # dependencies), each a per-route sum of wire occupancies.
    _, phases, routes, _, _, depends = st.skeleton.columns
    rows = zip(routes, st.numbers.T.tolist())
    sent = [_Sent(route, w * c, f) for route, (w, _, c, f) in rows]
    occupancy = wire_occupancy_batch(sent, link_model, time_model)[0].tolist()
    tiers = {"collective": {}, "push": {}, False: {}, True: {}}
    for phase, route, deps, occ in zip(phases, routes, depends, occupancy):
        by_route = tiers[phase if phase != "pull" else bool(deps)]
        by_route[route] = by_route.get(route, 0.0) + occ
    collectives, pushes, free_pulls, dep_pulls = (
        max(by_route.values(), default=0.0) for by_route in tiers.values()
    )
    return (
        time_model.compute_scale * st.compute_seconds
        + time_model.codec_scale * st.push_compress_seconds
        + collectives
        + pushes
        + time_model.codec_scale
        * (st.server_decompress_seconds + st.server_compress_seconds)
        + free_pulls
        + dep_pulls
        + time_model.codec_scale * st.pull_decompress_seconds
    )


def _trace_codec_pipelines(
    tracer,
    group: str,
    origin: float,
    push_records,
    compressed_at,
    push_cost: float,
    *,
    elements=None,
    unit: int | None = None,
    **args,
) -> None:
    """Emit the push-compression spans of ``_push_compressed_at``'s
    overlapped schedule: one span per record on its worker's
    ``codec:w<worker>`` track, ending exactly at the record's
    compression-done time ``origin + compressed_at[i]`` (the attribution
    layer reads these to separate codec time from barrier wait) and
    lasting its element-share of ``push_cost``.

    Spans go out in compression-done order — time order on every
    pipeline's track. ``elements`` are the records' element counts (read
    off them when ``None``; skeleton rows carry none). ``unit`` is the
    event replay's sending unit, which names the track and the ``worker``
    arg instead of the records' own workers; ``args`` ride every span.
    """
    if elements is None:
        elements = [record.elements for record in push_records]
    totals: dict[int | None, int] = {}
    for record, count in zip(push_records, elements):
        totals[record.worker] = totals.get(record.worker, 0) + count
    for index in sorted(range(len(push_records)), key=compressed_at.__getitem__):
        record = push_records[index]
        total = totals[record.worker]
        cost = push_cost * elements[index] / total if total else 0.0
        if cost <= 0.0:
            continue
        worker = record.worker if unit is None else unit
        end = origin + compressed_at[index]
        tracer.span(
            group,
            f"codec:w{worker}",
            f"compress:{record.name}",
            end - cost,
            end,
            worker=worker,
            **args,
        )


class NetworkSimulator:
    """Replays recorded step transmissions against a link model.

    Parameters
    ----------
    timeline:
        Measured per-layer backward timeline of the trained model (its
        *fractions* are used; absolute durations are rescaled per step).
    link_model:
        The topology's links (see :mod:`repro.netsim.links`).
    time_model:
        Supplies the hardware-substitution scales and the per-frame
        protocol overhead. Its ``overlap`` constant is ignored — measuring
        that number is this class's purpose.
    overlap:
        ``True`` schedules per-layer transmissions while backward still
        runs; ``False`` serializes compute, codec, and transfer.
    serialized_baseline:
        When True, each overlapped step's replay also runs the serialized
        schedule so ``SimulatedStep.serialized_seconds`` is meaningful.
        False (the default) skips that second replay, which would double
        the simulation cost; ``serialized_seconds`` then equals
        ``step_seconds``.
    vectorized:
        When True (the default), steps replay through the array kernel in
        :mod:`repro.netsim.vector`; ``False`` replays through the
        per-record Python loop below, the reference the kernel is held to
        (``tests/netsim/test_vector_parity``: bit-equal schedule times
        and critical paths) and the baseline the benchmarks time it
        against. This argument is the only way to reach the reference.
    tracer:
        Optional :class:`repro.telemetry.Tracer`. When set, the primary
        replay of each step emits simulated-clock spans — one track per
        link (``link:<route>``, one span per transfer record whose
        duration equals the occupancy charged to ``link_busy``), one per
        codec pipeline, plus compute / server-codec / pull-decompress
        phase spans — at ``trace_offset``, which every traced step then
        advances by its ``step_seconds`` so consecutive steps lay out
        contiguously. The serialized-baseline second replay never traces.
        ``None`` (the default) keeps the replays span-free.
    trace_group:
        Chrome-trace process name for this simulator's spans.
    """

    def __init__(
        self,
        timeline: BackwardTimeline,
        link_model: LinkModel,
        time_model: StepTimeModel | None = None,
        *,
        overlap: bool = True,
        serialized_baseline: bool = False,
        vectorized: bool = True,
        tracer=None,
        trace_group: str = "netsim",
        priority: str = "registration",
    ):
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown transmission priority {priority!r}; "
                f"expected {' or '.join(map(repr, PRIORITIES))}"
            )
        self.timeline = timeline
        self.link_model = link_model
        self.time_model = time_model or StepTimeModel()
        self.overlap = bool(overlap)
        #: Service order among same-readiness records: "registration"
        #: breaks ties by record name (the engine's registration order);
        #: "smallest" serves the fewest-element record first so short
        #: messages clear the codec pipeline and the link ahead of bulky
        #: ones (shortest-job-first on the wire).
        self.priority = priority
        self.serialized_baseline = bool(serialized_baseline)
        self.tracer = tracer
        self.trace_group = trace_group
        #: Simulated-clock origin of the next traced step (seconds).
        self.trace_offset = 0.0
        self.vectorized = bool(vectorized)
        self._ready_fraction = timeline.ready_fraction()
        # Parameter -> label of the layer that produces its gradient.
        self._layer_of: dict[str, str] = {}
        for layer in timeline.layers:
            for name in layer.params:
                self._layer_of[name] = layer.label

    # -- public API --------------------------------------------------------

    def simulate_run(self, steps) -> SimulatedRun:
        """Replay every recorded step of a training run; see the module
        docstring for the event order.

        BSP steps are independent schedules. The array kernel replays
        each run of consecutive steps sharing one record *structure*
        (same names, routes, workers, params, and dependencies — the
        invariant shape a recorded training emits every step) as a single
        pass with a leading step axis
        (:func:`~repro.netsim.vector.replay_run_vectorized`), so layouts
        and name/route tables are built once per group and the NumPy
        fixed costs amortize across it; every number is computed per row,
        so results do not depend on how the run groups.
        """
        steps = tuple(steps)
        if not steps:
            raise ValueError(
                "no recorded transmissions to simulate — was the engine "
                "built with record_transmissions=True?"
            )
        simulated: list[SimulatedStep] = []
        for group in structure_groups(steps) if self.vectorized else (steps,):
            overlapped = self._replay(group, overlap=self.overlap, trace=True)
            if self.overlap and self.serialized_baseline:
                serialized = self._replay(group, overlap=False)
                overlapped = [
                    replace(o, serialized_seconds=s.step_seconds)
                    for o, s in zip(overlapped, serialized)
                ]
            simulated.extend(overlapped)
        return SimulatedRun(tuple(simulated))

    # -- gradient readiness ------------------------------------------------

    def _grad_ready_seconds(self, record: TransmissionRecord, compute: float) -> float:
        """Time at which every gradient this record carries exists."""
        if not record.params:
            return compute
        # Parameters absent from the timeline (no owning leaf module) are
        # conservatively ready only when backward completes.
        return max(
            self._ready_fraction.get(name, 1.0) * compute for name in record.params
        )

    def _producing_layer(self, record: TransmissionRecord) -> str:
        if not record.params:
            return "backward:end"
        last = max(
            record.params, key=lambda name: self._ready_fraction.get(name, 1.0)
        )
        return f"backward:{self._layer_of.get(last, 'end')}"

    def _tiebreak(self, record, elements: int) -> tuple:
        """Service order among same-readiness records (see ``priority``);
        the array kernel's ``tiebreak`` keys say the same thing."""
        if self.priority == "smallest":
            return (elements, record.name)
        return (record.name,)

    def _push_compressed_at(
        self,
        push_records,
        compute: float,
        push_cost: float,
        *,
        overlap: bool,
        elements=None,
    ) -> dict[int, float]:
        """Compression-done times (relative to compute start) per record.

        One serial pipeline per sending worker: records enter in
        gradient-ready order and cost their element-share of the push
        compression budget. Shared by the step replay and the per-update
        event replay — the staleness-0 parity anchor requires the two to
        schedule compression identically. ``elements`` are as in
        :func:`_trace_codec_pipelines`.
        """
        if not overlap:
            return {i: compute + push_cost for i in range(len(push_records))}
        if elements is None:
            elements = [record.elements for record in push_records]
        pipeline_elements: dict[int | None, int] = {}
        for record, n in zip(push_records, elements):
            pipeline_elements[record.worker] = (
                pipeline_elements.get(record.worker, 0) + n
            )
        grad_ready = [
            self._grad_ready_seconds(record, compute) for record in push_records
        ]
        compressed_at: dict[int, float] = {}
        pipeline_free: dict[int | None, float] = {}
        for index in sorted(
            range(len(push_records)),
            key=lambda i: (
                grad_ready[i], *self._tiebreak(push_records[i], elements[i])
            ),
        ):
            record = push_records[index]
            total = pipeline_elements[record.worker]
            cost = push_cost * elements[index] / total if total else 0.0
            start = max(grad_ready[index], pipeline_free.get(record.worker, 0.0))
            compressed_at[index] = start + cost
            pipeline_free[record.worker] = compressed_at[index]
        return compressed_at

    def _scaled_seconds(self, st: StepTransmissions):
        """The step's recorded (compute, push codec, server codec, pull
        codec) seconds under the hardware-substitution scales."""
        tm = self.time_model
        return (
            tm.compute_scale * st.compute_seconds,
            tm.codec_scale * st.push_compress_seconds,
            tm.codec_scale
            * (st.server_decompress_seconds + st.server_compress_seconds),
            tm.codec_scale * st.pull_decompress_seconds,
        )

    # -- the event replay --------------------------------------------------

    def _replay(self, steps, *, overlap: bool, trace: bool = False):
        """One schedule of every step in ``steps`` (structurally identical
        when vectorized), traced when asked and a tracer is attached."""
        if self.vectorized:
            return replay_run_vectorized(self, steps, overlap=overlap, trace=trace)
        return [self._replay_scalar(st, overlap=overlap, trace=trace) for st in steps]

    def _replay_scalar(
        self, st: StepTransmissions, *, overlap: bool, trace: bool = False
    ) -> SimulatedStep:
        """Reference per-record replay (see ``vectorized`` above)."""
        pmo = self.time_model.per_message_overhead
        compute, push_cost, server_cost, pull_cost = self._scaled_seconds(st)

        records = st.records
        push_records, pull_records = phase_partition(records)

        # -- push compression: one serial pipeline per sending worker ------
        compressed_at = self._push_compressed_at(
            push_records, compute, push_cost, overlap=overlap
        )

        # -- push transmission: FIFO per link, in dependency tiers ---------
        # Injected-fault outage floors seed the per-route free times: a
        # route that is down until T within this step serves nothing
        # earlier.
        link_free = _merge_floors((st,))
        link_busy: dict[str, float] = {}
        end_by_name: dict[str, float] = {}
        # Per-record transfer [starts, ends], by phase-record index.
        push_times = [[0.0] * len(push_records) for _ in range(2)]
        pull_times = [[0.0] * len(pull_records) for _ in range(2)]

        def transfer(record, index, ready: float, times) -> tuple[float, float]:
            """Serve one record on its link once it is ``ready``."""
            start = max(ready, link_free.get(record.route, 0.0))
            duration = wire_occupancy_seconds(self.link_model, self.time_model, record)
            end = start + duration
            link_free[record.route] = end
            link_busy[record.route] = link_busy.get(record.route, 0.0) + duration
            end_by_name[record.name] = max(end_by_name.get(record.name, 0.0), end)
            times[0][index], times[1][index] = start, end
            return start, end

        def tiebreak(record) -> tuple:
            return self._tiebreak(record, record.elements)

        def dep_end(record, tier_floor: float) -> float:
            if overlap:
                return max(
                    (end_by_name.get(d, 0.0) for d in record.depends_on),
                    default=0.0,
                )
            # Serialized schedules are fully staged: a tier starts only
            # after the whole previous tier has landed, which is what makes
            # the schedule equal the analytic per-tier sum (the
            # hierarchical calibration test).
            return tier_floor if record.depends_on else 0.0

        push_end = compute if not push_records else 0.0
        bottleneck = None  # (record, start_bound_by_link)
        tier_floor = 0.0  # serialized mode: previous tier's last transfer
        for wave in dependency_waves(push_records):
            ready = {
                index: max(
                    compressed_at[index], dep_end(push_records[index], tier_floor)
                )
                for index in wave
            }
            for index in sorted(
                wave, key=lambda i: (ready[i], *tiebreak(push_records[i]))
            ):
                record = push_records[index]
                start, end = transfer(record, index, ready[index], push_times)
                tier_floor = max(tier_floor, end)
                if end > push_end:
                    push_end = end
                    bottleneck = (record, start > ready[index] + 1e-15)
        # The barrier cannot release before the slowest worker's backward;
        # when that floor binds, the step is compute-bound, not bound by
        # the last transfer.
        barrier_floor = compute + (push_cost if not overlap else 0.0)
        if barrier_floor > push_end:
            push_end = barrier_floor
            bottleneck = None

        # -- server phase and pulls ----------------------------------------
        pull_ready = push_end + server_cost
        phase_end = pull_ready
        last_pull: TransmissionRecord | None = None
        push_names = frozenset(r.name for r in push_records)
        tier_floor = pull_ready
        for wave in dependency_waves(pull_records, push_names):
            wave_floor = tier_floor
            for index in sorted(wave, key=lambda i: tiebreak(pull_records[i])):
                record = pull_records[index]
                ready = max(pull_ready, dep_end(record, wave_floor))
                _, end = transfer(record, index, ready, pull_times)
                tier_floor = max(tier_floor, end)
                if end > phase_end:
                    phase_end = end
                    last_pull = record
        step_seconds = phase_end + pull_cost
        if trace and self.tracer is not None:
            self._trace_step(
                st,
                push_records,
                [r.elements for r in push_records],
                pull_records,
                overlap=overlap,
                compressed_at=compressed_at,
                push_times=push_times,
                pull_times=pull_times,
                push_end=push_end,
                phase_end=phase_end,
            )

        # -- bookkeeping ----------------------------------------------------
        comm = sum(
            self.link_model.transfer_seconds(r.route, r.total_bytes) for r in records
        )
        overhead = sum(
            (pmo + self.link_model.spec(r.route).rtt_seconds) * r.frames
            for r in records
        )
        codec = push_cost + server_cost + pull_cost
        exposed = max(0.0, step_seconds - compute - codec - overhead)
        if compute > 0:
            achieved = min(1.0, max(0.0, (comm - exposed) / compute))
        else:
            achieved = 0.0
        return SimulatedStep(
            step=st.step,
            step_seconds=step_seconds,
            serialized_seconds=step_seconds,
            compute_seconds=compute,
            codec_seconds=codec,
            comm_seconds=comm,
            overhead_seconds=overhead,
            exposed_seconds=exposed,
            achieved_overlap=achieved if overlap else 0.0,
            link_utilization=_utilization(
                self.link_model.link_ids, link_busy, step_seconds
            ),
            critical_path=self._critical_path(
                bottleneck, last_pull, overlap, bool(pull_records)
            ),
        )

    def _trace_step(
        self,
        st: StepTransmissions,
        push_records,
        push_elements,
        pull_records,
        *,
        overlap: bool,
        compressed_at,
        push_times,
        pull_times,
        push_end: float,
        phase_end: float,
    ) -> None:
        """Emit one replayed step's spans at ``trace_offset`` and advance
        the trace clock by the step's ``step_seconds``.

        The one span layout of the step model, fed by the array kernel
        (skeleton rows) and the scalar reference (records) alike:
        ``push_elements``, ``compressed_at`` and the ``(starts, ends)``
        transfer times are indexed like the phase's records, ``push_end``
        is the barrier release and ``phase_end`` the last pull's landing.
        Every track's spans go out in time order. Outage windows ride
        their own ``outage:<route>`` tracks so the ``link:<route>`` span
        totals still reconcile with ``link_busy``.
        """
        tracer, group, off = self.tracer, self.trace_group, self.trace_offset
        compute, push_cost, server_cost, pull_cost = self._scaled_seconds(st)
        pull_ready = push_end + server_cost
        step_seconds = phase_end + pull_cost
        tracer.span(group, "compute", "backward", off, off + compute, step=st.step)
        if overlap:
            # One serial codec pipeline per sending worker.
            _trace_codec_pipelines(
                tracer, group, off, push_records, compressed_at, push_cost,
                elements=push_elements, step=st.step,
            )
        elif push_cost > 0.0:
            # Serialized schedules charge one staged block after compute.
            tracer.span(
                group, "codec", "push-compress",
                off + compute, off + compute + push_cost, step=st.step,
            )
        for route, down in st.link_down:
            if down > 0.0:
                tracer.span(
                    group, f"outage:{route}", "link-down", off, off + down,
                    step=st.step,
                )
        for records, (starts, ends) in (
            (push_records, push_times),
            (pull_records, pull_times),
        ):
            # Links are FIFO, so start order is service order per route.
            for index in sorted(range(len(records)), key=starts.__getitem__):
                record = records[index]
                tracer.span(
                    group,
                    f"link:{record.route}",
                    record.name,
                    off + starts[index],
                    off + ends[index],
                    phase=record.phase,
                    step=st.step,
                    worker=record.worker,
                )
        if server_cost > 0:
            tracer.span(
                group, "server", "server-codec",
                off + push_end, off + pull_ready, step=st.step,
            )
        if pull_cost > 0:
            tracer.span(
                group, "compute", "pull-decompress",
                off + phase_end, off + step_seconds, step=st.step,
            )
        self.trace_offset = off + step_seconds

    def _critical_path(
        self,
        bottleneck: tuple[TransmissionRecord, bool] | None,
        last_pull: TransmissionRecord | None,
        overlap: bool,
        has_pulls: bool,
    ) -> tuple[str, ...]:
        """Label the chain of events that set this step's duration."""
        path: list[str] = []
        if bottleneck is None:
            path.append("backward:end")
        else:
            record, link_bound = bottleneck
            path.append(
                self._producing_layer(record) if overlap else "backward:end"
            )
            worker = f"@w{record.worker}" if record.worker is not None else ""
            path.append(f"compress:{record.name}{worker}")
            if link_bound:
                path.append(f"queue:{record.route}")
            path.append(f"xfer:{record.route}:{record.name}")
        if has_pulls:
            path.append("server-codec")
            if last_pull is not None:
                path.append(f"xfer:{last_pull.route}:{last_pull.name}")
            path.append("pull-decompress")
        return tuple(path)


# Event priorities: at equal timestamps, finish in-flight work (transfers,
# server commits) before dispatching new work, so ready/gate state is
# current when a worker starts its next local step.
_P_XFER, _P_COMMIT, _P_PULLS, _P_ENQUEUE, _P_START = range(5)


class EventDrivenSimulator:
    """Replays recorded async/SSP update streams against a link model.

    Where :class:`NetworkSimulator` replays one *global step* at a time,
    this scheduler replays a stream of per-update events
    (:class:`~repro.netsim.events.UpdateTransmissions`) with a virtual
    clock per worker:

    * each worker cycles compute → push compression → push transfer →
      server apply (the commit) → individual pull transfer → pull decode,
      with compute/codec durations taken from the recording;
    * links are FIFO shared resources — updates from different workers
      interleave in arrival order, so a hot server NIC honestly delays
      whoever pushed last;
    * the server is a serial resource: one decompress+apply+pull-compress
      at a time, in push-arrival order;
    * under SSP, a worker whose next local step would exceed the staleness
      bound *blocks* until the lagging workers' commits release it — the
      barrier is an event on the timeline, not a constant.

    ``staleness=None`` is fully asynchronous (no gate); ``staleness=0``
    degenerates to lock-step execution, which the simulator replays as
    synchronized generations through the step scheduler — by construction
    (and by test) the staleness-0 schedule reproduces the BSP schedule,
    anchoring the event-driven modes to the calibrated BSP path.

    With ``overlap=True``, push records enter the worker's compression
    pipeline as their layer gradients become ready (same per-layer
    timeline as the step scheduler); ``overlap=False`` holds every push
    until compute and compression fully finish. Cross-worker pipelining is
    inherent to the event-driven modes and happens in both cases;
    ``SimulatedExchange.serialized_seconds`` reports the one-global-chain
    baseline for comparison.
    """

    def __init__(
        self,
        timeline: BackwardTimeline,
        link_model: LinkModel,
        time_model: StepTimeModel | None = None,
        *,
        staleness: int | None = None,
        overlap: bool = True,
        tracer=None,
        trace_group: str = "netsim-events",
        priority: str = "registration",
    ):
        # EngineConfig's rule: a bound is a non-negative integer, not a bool.
        if staleness is not None and (
            not isinstance(staleness, numbers.Integral)
            or isinstance(staleness, bool)
            or staleness < 0
        ):
            raise ValueError(
                f"staleness must be None or an integer >= 0, got {staleness!r}"
            )
        self.staleness = staleness
        self.overlap = bool(overlap)
        self.link_model = link_model
        self.time_model = time_model or StepTimeModel()
        # Optional telemetry tracer (simulated-clock spans: one track per
        # worker/rack unit, per link, and for the server commit pipeline).
        self.tracer = tracer
        self.trace_group = trace_group
        # The step scheduler carries the per-layer readiness machinery and
        # replays the lock-step (staleness=0) generations.
        self._steps = NetworkSimulator(
            timeline,
            link_model,
            self.time_model,
            overlap=overlap,
            tracer=tracer,
            trace_group=trace_group,
            priority=priority,
        )

    # -- public API --------------------------------------------------------

    def simulate(self, updates) -> SimulatedExchange:
        """Replay a recorded update stream; see the class docstring."""
        events = tuple(sorted(updates, key=lambda e: e.update))
        if not events:
            raise ValueError(
                "no recorded update events to simulate — was the engine "
                "built with record_transmissions=True in an async/SSP mode?"
            )
        for e in events:
            # Surface unknown/circular record dependencies up front with
            # the step scheduler's error messages instead of deadlocking
            # the event loop.
            dependency_waves(e.skeleton.rows)
        if self.staleness == 0:
            return self._simulate_lockstep(events)
        return self._simulate_events(events)

    # -- staleness=0: synchronized generations -----------------------------

    @staticmethod
    def _generation_step(generation: list[UpdateTransmissions]) -> StepTransmissions:
        """Fold one lock-step generation into an equivalent BSP step.

        Workers run in parallel (max compute / push-compress / pull
        decode); the server serializes every update's apply and pull
        compression (sums). Outage floors max-merge per route (the
        split copies of one step all carry the same floor, so the merge
        is idempotent). The inverse of
        :func:`~repro.netsim.events.updates_from_bsp_steps`.
        """
        return StepTransmissions._of(
            tuple(zip(*chain.from_iterable(e.skeleton.rows for e in generation))),
            chain.from_iterable(e.numbers.T.ravel().tolist() for e in generation),
            step=generation[0].local_step,
            compute_seconds=max(e.compute_seconds for e in generation),
            push_compress_seconds=max(e.push_compress_seconds for e in generation),
            server_decompress_seconds=sum(e.server_seconds for e in generation),
            server_compress_seconds=sum(e.pull_compress_seconds for e in generation),
            pull_decompress_seconds=max(
                e.pull_decompress_seconds for e in generation
            ),
            link_down=tuple(sorted(_merge_floors(generation).items())),
        )

    def _simulate_lockstep(self, events) -> SimulatedExchange:
        generations: dict[int, list[UpdateTransmissions]] = {}
        for e in events:
            generations.setdefault(e.local_step, []).append(e)
        generations = [generations[local_step] for local_step in sorted(generations)]
        # Lock-step generations are BSP steps: one run through the step
        # scheduler, which also lays a traced run on one contiguous clock
        # (from 0 on every call, like the event loop's absolute times).
        self._steps.trace_offset = 0.0
        run = self._steps.simulate_run(
            [self._generation_step(generation) for generation in generations]
        )
        now = 0.0
        sim_updates: list[SimulatedUpdate] = []
        compute = codec = comm = overhead = hidden = 0.0
        busy: dict[str, float] = {}
        for generation, step in zip(generations, run.steps):
            end = now + step.step_seconds
            sim_updates.extend(
                SimulatedUpdate(
                    update=e.update,
                    worker=e.worker,
                    start_seconds=now,
                    commit_seconds=end,
                    done_seconds=end,
                    staleness=e.staleness,
                )
                for e in generation
            )
            compute += step.compute_seconds
            codec += step.codec_seconds
            comm += step.comm_seconds
            overhead += step.overhead_seconds
            hidden += step.hidden_seconds
            for link_id, utilization in step.link_utilization.items():
                busy[link_id] = busy.get(link_id, 0.0) + (
                    utilization * step.step_seconds
                )
            now = end
        return SimulatedExchange(
            updates=tuple(sim_updates),
            total_seconds=now,
            compute_seconds=compute,
            codec_seconds=codec,
            comm_seconds=comm,
            overhead_seconds=overhead,
            serialized_seconds=compute + codec + comm + overhead,
            achieved_overlap=(hidden / comm) if comm > 0 else 0.0,
            link_utilization=_utilization(self.link_model.link_ids, busy, now),
        )

    # -- async / staleness>0: the discrete-event loop ----------------------

    def _simulate_events(self, events) -> SimulatedExchange:
        tm = self.time_model
        codec_scale = tm.codec_scale
        tracer = self.tracer
        trace_group = self.trace_group

        # Each update's push side (pushes and collectives: skeleton rows and
        # their elements) and pull rows. Every wire occupancy is resolved
        # up front in one batched pass (banking the comm/overhead totals),
        # so the event loop reads plain floats, not link specs.
        sides: dict[int, tuple] = {}
        sent: list[_Sent] = []  # pushes first, then pulls
        for e in events:
            rows, (wire, elements, copies, frames) = e.skeleton.rows, e.numbers.tolist()
            push = [i for i, r in enumerate(rows) if r.phase != "pull"]
            pull = [i for i, r in enumerate(rows) if r.phase == "pull"]
            sides[e.update] = (
                [rows[i] for i in push], [elements[i] for i in push],
                [rows[i] for i in pull], len(sent),
            )
            sent += (
                _Sent(rows[i].route, wire[i] * copies[i], frames[i])
                for i in push + pull
            )
        occ_all, comm, overhead = wire_occupancy_batch(sent, self.link_model, tm)
        occupancy = occ_all.tolist()

        # Injected-fault outage floors (absolute simulated time): a route
        # serves nothing before its floor. Windows ride dedicated
        # outage:<route> tracks so link:<route> span totals still
        # reconcile with link_busy.
        down_until = _merge_floors(events)
        if tracer is not None:
            for route, floor in sorted(down_until.items()):
                if floor > 0.0:
                    tracer.span(
                        trace_group, f"outage:{route}", "link-down", 0.0, floor
                    )

        by_worker: dict[int, list[UpdateTransmissions]] = {}
        for e in events:
            by_worker.setdefault(e.worker, []).append(e)
        workers = sorted(by_worker)

        next_index = {w: 0 for w in workers}
        ready = {w: 0.0 for w in workers}
        committed = {w: 0 for w in workers}
        blocked: set[int] = set()

        # A link's queue keeps the record it is serving at its head until
        # that record lands: a link is busy exactly when its queue is not
        # empty.
        link_queue: dict[str, deque] = {}
        link_busy: dict[str, float] = {}
        server_free = 0.0

        compute_intervals: list[tuple[float, float]] = []
        transfer_intervals: list[tuple[float, float]] = []
        finished: list[SimulatedUpdate] = []
        totals = {"compute": 0.0, "codec": 0.0}

        heap: list = []
        sequence = count()

        def schedule(time: float, priority: int, fn) -> None:
            heapq.heappush(heap, (time, priority, next(sequence), fn))

        def gate_open(w: int) -> bool:
            """May worker ``w`` start its next local step now?"""
            if self.staleness is None:
                return True
            k = next_index[w]
            floor = k - self.staleness
            return all(
                committed[v] >= min(floor, len(by_worker[v])) for v in workers
            )

        # -- shared links: FIFO service in arrival order -------------------
        def serve(route: str, now: float) -> None:
            """Start the head of ``route``'s queue."""
            floor = down_until.get(route, 0.0)
            if now < floor:
                # The route is down: hold the head of the queue and retry
                # at the floor. Starting it at max(now, floor) right away
                # would fire its landing, and emit its span, at another
                # place among same-time events.
                schedule(floor, _P_ENQUEUE, lambda t: serve(route, t))
                return
            update, record, duration, arrived = link_queue[route][0]
            end = now + duration
            transfer_intervals.append((now, end))
            link_busy[route] = link_busy.get(route, 0.0) + duration
            if tracer is not None:
                # Span duration equals the occupancy charged to link_busy,
                # so per-link span sums reconcile with link_utilization.
                tracer.span(
                    trace_group, f"link:{route}", record.name, now, end,
                    phase=record.phase, worker=record.worker, update=update,
                )
            schedule(end, _P_XFER, lambda t: land(route, t))

        def land(route: str, now: float) -> None:
            queue = link_queue[route]
            # Arrive before leaving the head, so a record the arrival
            # releases onto this route queues instead of starting now.
            arrived = queue[0][3]
            arrived(now)
            queue.popleft()
            if queue:
                serve(route, now)

        # -- the one send path ---------------------------------------------
        def send(e, records, first, landed: set, slot, now: float, then) -> None:
            """Put one phase of update ``e`` on the wire (``first``: its
            first record's index into ``occupancy``).

            A record enters its link queue once every name in its
            ``depends_on`` is in ``landed`` (names land as their transfers
            complete). A push also waits for its compression slot
            (``slot[i]``, absolute) and enters through a scheduled event;
            a pull (``slot=None``) enters at once. ``then(t)`` runs when
            the phase's last record lands.
            """
            if not records:
                then(now)
                return
            waiting: set[int] = set()
            left = len(records)

            def enqueue(i: int, t: float) -> None:
                route = records[i].route
                queue = link_queue.setdefault(route, deque())
                queue.append(
                    (e.update, records[i], occupancy[first + i],
                     lambda td: arrived(i, td))
                )
                if len(queue) == 1:
                    serve(route, t)

            def release(i: int, t: float) -> None:
                if slot is None:
                    enqueue(i, t)
                else:
                    schedule(
                        max(t, slot[i]), _P_ENQUEUE, lambda tq: enqueue(i, tq)
                    )

            def arrived(i: int, t: float) -> None:
                nonlocal left
                landed.add(records[i].name)
                left -= 1
                for j in sorted(waiting):
                    if landed.issuperset(records[j].depends_on):
                        waiting.discard(j)
                        release(j, t)
                if not left:
                    then(t)

            for i, record in enumerate(records):
                if landed.issuperset(record.depends_on):
                    release(i, now)
                else:
                    waiting.add(i)

        # -- worker state machine ------------------------------------------
        def start_update(w: int, now: float) -> None:
            e = by_worker[w][next_index[w]]
            compute = tm.compute_scale * e.compute_seconds
            compute_end = now + compute
            compute_intervals.append((now, compute_end))
            if tracer is not None:
                tracer.span(
                    trace_group, f"worker{w}", f"compute:u{e.update}",
                    now, compute_end, staleness=e.staleness,
                )
            totals["compute"] += compute
            push_cost = codec_scale * e.push_compress_seconds
            totals["codec"] += push_cost + codec_scale * (
                e.server_seconds + e.pull_compress_seconds + e.pull_decompress_seconds
            )
            pushes, elements, _, first = sides[e.update]
            # Same per-worker compression pipeline as the step replay,
            # offset to this update's compute start.
            compressed_at = self._steps._push_compressed_at(
                pushes, compute, push_cost, overlap=self.overlap, elements=elements
            )
            if tracer is not None and push_cost > 0.0:
                if self.overlap and pushes:
                    _trace_codec_pipelines(
                        tracer, trace_group, now, pushes, compressed_at,
                        push_cost, elements=elements, unit=w, update=e.update,
                    )
                else:
                    tracer.span(
                        trace_group, f"codec:w{w}", f"push-compress:u{e.update}",
                        compute_end, compute_end + push_cost,
                        worker=w, update=e.update,
                    )
            if not pushes:
                schedule(
                    compute_end + push_cost,
                    _P_ENQUEUE,
                    lambda t: pushes_arrived(e, now, t),
                )
                return
            send(
                e, pushes, first, set(),
                [now + compressed_at[i] for i in range(len(pushes))],
                now, lambda t: pushes_arrived(e, now, t),
            )

        def pushes_arrived(e, start: float, now: float) -> None:
            """All of this update's pushes reached the server: serialize
            the apply (commit) and the per-worker pull compression."""
            nonlocal server_free
            begin = max(now, server_free)
            commit = begin + codec_scale * e.server_seconds
            pulls_ready = commit + codec_scale * e.pull_compress_seconds
            server_free = pulls_ready
            if tracer is not None:
                tracer.span(
                    trace_group, "server", f"commit:u{e.update}",
                    begin, pulls_ready, worker=e.worker,
                )
            schedule(commit, _P_COMMIT, lambda t: committed_at(e.worker, t))
            # Push transfers all landed before the server phase, so every
            # push name counts as landed for the pulls; a pull depending
            # on another pull (the intra-rack broadcast of a cross-rack
            # delta) waits for that transfer.
            pushes, _, pulls, first = sides[e.update]
            schedule(
                pulls_ready,
                _P_PULLS,
                lambda t: send(
                    e, pulls, first + len(pushes),
                    {r.name for r in pushes}, None, t,
                    lambda td: update_done(e, start, commit, td),
                ),
            )

        def committed_at(w: int, now: float) -> None:
            committed[w] += 1
            for v in sorted(blocked):
                if gate_open(v):
                    blocked.discard(v)
                    schedule(
                        max(ready[v], now), _P_START, lambda t, v=v: start_update(v, t)
                    )

        def update_done(e, start: float, commit: float, now: float) -> None:
            w = e.worker
            done = now + codec_scale * e.pull_decompress_seconds
            if tracer is not None and done > now:
                tracer.span(
                    trace_group, f"worker{w}", f"pull-decompress:u{e.update}",
                    now, done,
                )
            ready[w] = done
            finished.append(
                SimulatedUpdate(
                    update=e.update,
                    worker=w,
                    start_seconds=start,
                    commit_seconds=commit,
                    done_seconds=done,
                    staleness=e.staleness,
                )
            )
            next_index[w] += 1
            if next_index[w] < len(by_worker[w]):
                if gate_open(w):
                    schedule(done, _P_START, lambda t: start_update(w, t))
                else:
                    blocked.add(w)

        # No first step is gated: every floor k - staleness is negative.
        for w in workers:
            schedule(0.0, _P_START, lambda t, w=w: start_update(w, t))

        while heap:
            time, _, _, fn = heapq.heappop(heap)
            fn(time)

        if len(finished) != len(events):  # pragma: no cover - invariant
            raise RuntimeError(
                f"event replay finished {len(finished)}/{len(events)} updates; "
                "the recorded stream is not a consistent SSP schedule"
            )

        total = max(u.done_seconds for u in finished)
        return SimulatedExchange(
            updates=tuple(sorted(finished, key=lambda u: u.update)),
            total_seconds=total,
            compute_seconds=totals["compute"],
            codec_seconds=totals["codec"],
            comm_seconds=comm,
            overhead_seconds=overhead,
            serialized_seconds=totals["compute"] + totals["codec"] + comm + overhead,
            achieved_overlap=_hidden_fraction(compute_intervals, transfer_intervals),
            link_utilization=_utilization(self.link_model.link_ids, link_busy, total),
        )


def _merge_floors(streams) -> dict[str, float]:
    """Each route's latest ``link_down`` floor over ``streams`` (steps or
    updates): the step model's per-step floors, a lock-step generation's
    merged ones, and the event loop's absolute outage windows."""
    down: dict[str, float] = {}
    for stream in streams:
        for route, floor in stream.link_down:
            down[route] = max(down.get(route, 0.0), floor)
    return down


def _hidden_fraction(
    compute_intervals: list[tuple[float, float]],
    transfer_intervals: list[tuple[float, float]],
) -> float:
    """Measured share of link-busy time that ran under some worker's
    compute — the event-driven overlap metric (no modelling, pure
    interval intersection on the simulated timeline)."""
    total = sum(end - start for start, end in transfer_intervals)
    if total <= 0:
        return 0.0
    merged: list[list[float]] = []
    for start, end in sorted(compute_intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    # Both interval lists are sorted, so one pointer sweep suffices: a
    # compute interval ending before this transfer's start cannot overlap
    # any later transfer either. O((T + C) log T) instead of O(T * C).
    hidden = 0.0
    base = 0
    for start, end in sorted(transfer_intervals):
        while base < len(merged) and merged[base][1] <= start:
            base += 1
        for c_start, c_end in merged[base:]:
            if c_start >= end:
                break
            hidden += max(0.0, min(end, c_end) - max(start, c_start))
    return hidden / total
