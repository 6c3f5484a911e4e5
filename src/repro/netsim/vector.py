"""The array replay kernel: record batches and the step-axis replay.

The per-record Python loop in :class:`~repro.netsim.scheduler.
NetworkSimulator` (``vectorized=False``) is the reference semantics of
the BSP model, but a fleet-scale hierarchical step carries thousands of
records and a sweep replays each recording dozens of times; this module
holds the one array implementation of that model, :func:`replay_run_vectorized`.

*Structure once.* A step's records are a shared
:class:`~repro.netsim.events.StepSkeleton` plus the step's own int64
``numbers``. The skeleton converts once into a :class:`RecordBatch` —
route, worker, name and dependency codes, the dependency waves, and for
every FIFO service pass (the push records on their workers' codec
pipelines, each wave on its links) a :class:`_Layout`: the records in
name order plus the depth-wise sweep plan of its segments. The batch
rides the skeleton, and a replay group is a run of consecutive steps
holding one skeleton object, so nothing is cached on the plans.

*Numbers per row.* The kernel replays a group of ``S >= 1`` structurally
identical steps with a leading step axis. BSP steps are independent
schedules, so every quantity that varies — readiness, occupancies,
outage floors, and each service order — is computed per row; only the
layouts are shared, because per-worker and per-route record counts are
structural. A single step is the ``S = 1`` group.

*Exact arithmetic.* Each FIFO pass (:func:`_serve`) sorts a row's
records by the scalar loop's key and then runs a depth-wise sweep:
iteration ``k`` serves every segment's ``k``-th queued record at once, so
each end time comes from exactly the scalar loop's IEEE operations (one
``max``, one add, in service order) and the loop length is the deepest
queue, not the record count. Exactness is load-bearing: per-record codec
costs are element-shares of one budget, so distinct pipelines finish in
exact real-arithmetic ties, and a prefix-sum formulation (which
re-associates the additions) can land an ulp away and flip the next
wave's service order — a discrete schedule change, not a rounding blur.
Schedule times and critical paths therefore equal the reference bit for
bit; only the ``comm`` / ``overhead`` totals, summed pairwise here and
sequentially there, differ in the last digits.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.netsim.events import SimulatedStep, StepTransmissions

__all__ = [
    "RecordBatch",
    "dependency_waves",
    "record_batch",
    "phase_partition",
    "replay_run_vectorized",
    "structure_groups",
    "warm_extraction",
    "wire_occupancy_batch",
]

def structure_groups(steps):
    """Yield ``steps`` as maximal runs of consecutive steps that hold one
    :class:`~repro.netsim.events.StepSkeleton` object (tuples) — the
    kernel's replay groups."""
    for _, group in groupby(steps, key=lambda st: id(st.skeleton)):
        yield tuple(group)


def warm_extraction(steps) -> int:
    """Build every replay group's :class:`RecordBatch` — the "cold"
    extraction a fresh recording's first replay pays — and return the
    number of groups. ``SweepReplayCache.prepare_extraction`` calls it once
    per ``RecordingKey``, for every timeline config to replay warm.
    """
    groups = list(structure_groups(steps))
    for group in groups:
        record_batch(group[0])
    return len(groups)


def phase_partition(records):
    """Split records into (push+collective, pull) lists in one pass."""
    pushes, pulls = [], []
    for record in records:
        (pulls if record.phase == "pull" else pushes).append(record)
    return pushes, pulls


def dependency_waves(
    records, external_names: frozenset[str] | set[str] = frozenset()
) -> list[list[int]]:
    """Group record indices into dependency tiers.

    Wave ``k`` holds records whose ``depends_on`` names all resolve to
    records in earlier waves (or to ``external_names``, which count as
    already complete — pull records may depend on push-phase records).
    Unknown names and circular dependencies are rejected with a clear
    error; matching is by record name, and when several records share a
    name a dependent waits for the *last* of them.
    """
    known = {r.name for r in records} | set(external_names)
    for record in records:
        missing = [d for d in record.depends_on if d not in known]
        if missing:
            raise ValueError(
                f"record {record.name!r} depends on unknown "
                f"record(s): {missing}"
            )
    placed: set[str] = set(external_names)
    unresolved = list(range(len(records)))
    waves: list[list[int]] = []
    while unresolved:
        wave = [
            index
            for index in unresolved
            if all(d in placed for d in records[index].depends_on)
        ]
        if not wave:
            stuck = ", ".join(records[i].name for i in unresolved)
            raise ValueError(f"circular record dependencies among: {stuck}")
        wave_set = set(wave)
        unresolved = [i for i in unresolved if i not in wave_set]
        # A name "lands" only once every record bearing it is placed.
        wave_names = {records[i].name for i in wave}
        pending = {records[i].name for i in unresolved}
        placed |= wave_names - pending
        waves.append(wave)
    return waves


class _Layout:
    """The structural half of one FIFO service pass: a subset of a phase's
    records (a dependency wave, or every push record) queued on segments
    (its links, or the workers' codec pipelines).

    Columns are the records in *name order*, so a stable sort on the rest
    of the scalar loop's key breaks ties by name exactly as that loop
    does. ``by_seg`` groups the columns by segment (the service layout
    when every row serves in name order), ``seg_scan`` is the sorted
    segment row every service layout shares — per-segment record counts
    are structural even where the order within a segment is per-step
    data — and ``levels[k]`` lists the scan slots (and their segments) of
    every segment's ``k``-th queued record, for the depth-wise sweep.
    """

    __slots__ = ("rec", "seg", "by_seg", "seg_scan", "seg_first", "levels")

    def __init__(self, rec: np.ndarray, name_code: np.ndarray, seg_code: np.ndarray):
        rec = rec[np.argsort(name_code[rec], kind="stable")]
        self.rec = rec
        self.seg = seg_code[rec]
        self.by_seg = np.argsort(self.seg, kind="stable")
        self.seg_scan = self.seg[self.by_seg]
        counts = np.bincount(self.seg_scan)
        self.seg_first = np.concatenate(([0], np.cumsum(counts)[:-1]))
        depth = np.arange(rec.size) - self.seg_first[self.seg_scan]
        by_depth = np.argsort(depth, kind="stable")
        bounds = np.searchsorted(depth[by_depth], np.arange(counts.max() + 1))
        self.levels = [
            (by_depth[lo:hi], self.seg_scan[by_depth[lo:hi]])
            for lo, hi in zip(bounds, bounds[1:])
        ]


class _Wave(_Layout):
    """One dependency tier of a phase on its links, plus the tier's name
    codes and its flattened dependency name codes, ready for a
    ``maximum.reduceat`` over the transfer ends landed so far."""

    __slots__ = ("names", "names_unique", "has_deps", "dep_idx", "dep_flat", "dep_off")

    def __init__(self, indices, phase: "_PhaseBatch", deps: list[list[int]]):
        super().__init__(
            np.array(indices, dtype=np.intp), phase.name_code, phase.route_code
        )
        self.names = phase.name_code[self.rec]
        # Columns are name-sorted, so duplicate names are adjacent.
        self.names_unique = bool((self.names[1:] != self.names[:-1]).all())
        dep_idx: list[int] = []
        dep_flat: list[int] = []
        dep_off: list[int] = []
        for pos, i in enumerate(self.rec.tolist()):
            if deps[i]:
                dep_idx.append(pos)
                dep_off.append(len(dep_flat))
                dep_flat.extend(deps[i])
        self.dep_idx = np.array(dep_idx, dtype=np.intp)
        self.dep_flat = np.array(dep_flat, dtype=np.intp)
        self.dep_off = np.array(dep_off, dtype=np.intp)
        self.has_deps = np.zeros(self.rec.size, dtype=bool)
        self.has_deps[self.dep_idx] = True

    def dep_ends(self, end_by_name: np.ndarray) -> np.ndarray:
        """Max transfer-end over each record's dependencies (0 if none):
        ``end_by_name`` is ``(S, names)``, the result ``(S, wave)``."""
        out = np.zeros((end_by_name.shape[0], self.rec.size))
        if self.dep_idx.size:
            out[:, self.dep_idx] = np.maximum.reduceat(
                end_by_name[:, self.dep_flat], self.dep_off, axis=1
            )
        return out


class _PhaseBatch:
    """Structure of one phase's records (pushes+collectives, or pulls)."""

    __slots__ = ("records", "n", "route_code", "name_code", "waves")

    def __init__(
        self,
        records: list,
        name_code_of: dict[str, int],
        route_code_of: dict[str, int],
        external_names: frozenset[str],
    ):
        self.records = records
        n = len(records)
        self.n = n
        for r in records:
            if r.route not in route_code_of:
                route_code_of[r.route] = len(route_code_of)
        self.route_code = np.array(
            [route_code_of[r.route] for r in records], dtype=np.intp
        )
        self.name_code = np.array(
            [name_code_of[r.name] for r in records], dtype=np.intp
        )
        deps = [[name_code_of[d] for d in r.depends_on] for r in records]
        if not any(deps):
            # Fast path: no tier coupling means a single wave and no graph
            # traversal at all (the flat topologies).
            raw = [range(n)] if n else []
        else:
            raw = dependency_waves(records, external_names)
        self.waves = tuple(_Wave(wave, self, deps) for wave in raw)


class RecordBatch:
    """Link-model-independent struct-of-arrays view of one skeleton.

    Built once per :class:`~repro.netsim.events.StepSkeleton` (see
    :func:`record_batch`) and shared by every step holding it and every
    simulator replaying them: the arrays depend only on the structure,
    while the numbers are each step's own and per-link quantities (wire
    occupancies) are computed per replay from the cached route codes.
    """

    __slots__ = (
        "route_names", "num_names", "push", "pull", "push_pos", "pull_pos",
        "pipelines", "num_pipelines", "_frac_cache",
    )

    def __init__(self, records):
        pushes, pulls = phase_partition(records)
        # Positions of each phase's records in the skeleton, so the kernel
        # can slice each step's numbers (in record order) into the phase
        # arrays' layout.
        is_pull = np.array([r.phase == "pull" for r in records], dtype=bool)
        self.push_pos, self.pull_pos = np.flatnonzero(~is_pull), np.flatnonzero(is_pull)
        # One global name table spanning both phases: pull dependencies may
        # name push-phase records, and transfer-end times are keyed by
        # name. Codes are assigned in *sorted* name order, so the codes
        # double as lexicographic ranks and integer comparisons reproduce
        # the scalar path's string tie-breaking exactly.
        names = sorted(
            {r.name for r in records} | {d for r in records for d in r.depends_on}
        )
        name_code_of = {name: code for code, name in enumerate(names)}
        self.num_names = len(names)
        route_code_of: dict[str, int] = {}
        push_names = frozenset(r.name for r in pushes)
        self.push = _PhaseBatch(pushes, name_code_of, route_code_of, frozenset())
        self.pull = _PhaseBatch(pulls, name_code_of, route_code_of, push_names)
        self.route_names = tuple(route_code_of)
        # Every push record on its sending worker's serial compression
        # pipeline; the ``None`` shared pipeline gets its own dense code.
        worker_ids: dict[object, int] = {}
        worker_code = np.array(
            [worker_ids.setdefault(r.worker, len(worker_ids)) for r in pushes],
            dtype=np.intp,
        )
        self.num_pipelines = len(worker_ids)
        self.pipelines = (
            _Layout(np.arange(len(pushes)), self.push.name_code, worker_code)
            if pushes
            else None
        )
        #: Per-timeline cache of each push record's gradient-ready compute
        #: fraction (max over the parameters the record carries). Keyed by
        #: the (hashable, frozen) BackwardTimeline.
        self._frac_cache: dict[object, np.ndarray] = {}

    def route_arrays(self, link_model):
        """(bits_per_second, rtt_seconds) per route code, for one model."""
        specs = [link_model.spec(r) for r in self.route_names]
        rates = np.array([s.bits_per_second for s in specs], dtype=np.float64)
        rtts = np.array([s.rtt_seconds for s in specs], dtype=np.float64)
        return rates, rtts

    def max_ready_fraction(self, timeline, ready_fraction: dict[str, float]):
        """Each push record's gradient-ready compute fraction (cached).

        Records carrying no parameters are conservatively ready at 1.0
        (when backward completes), matching the scalar path.
        """
        cached = self._frac_cache.get(timeline)
        if cached is None:
            cached = np.array(
                [
                    max(ready_fraction.get(name, 1.0) for name in r.params)
                    if r.params
                    else 1.0
                    for r in self.push.records
                ],
                dtype=np.float64,
            )
            self._frac_cache[timeline] = cached
        return cached


def record_batch(st: StepTransmissions) -> RecordBatch:
    """The :class:`RecordBatch` of the step's skeleton (built on first
    use, then shared by every step holding that skeleton)."""
    skeleton = st.skeleton
    if skeleton.batch is None:
        skeleton.batch = RecordBatch(skeleton.rows)
    return skeleton.batch


def wire_occupancy_batch(records, link_model, time_model):
    """Per-record wire occupancies plus comm/overhead totals, batched.

    Returns ``(occupancy, comm, overhead)``: the array of per-record link
    occupancies (transfer + per-frame protocol overhead + per-frame link
    RTT — elementwise the same IEEE operations as
    :func:`~repro.netsim.scheduler.wire_occupancy_seconds`), the summed
    raw transfer seconds, and the summed per-frame overhead seconds. The
    event simulator precomputes this once per update stream instead of
    resolving link specs record by record inside the event loop.
    """
    route_code_of: dict[str, int] = {}
    codes = []
    tbytes = []
    frames = []
    for r in records:
        codes.append(route_code_of.setdefault(r.route, len(route_code_of)))
        tbytes.append(r.total_bytes)
        frames.append(r.frames)
    if not codes:
        return np.zeros(0), 0.0, 0.0
    specs = [link_model.spec(r) for r in route_code_of]
    rates = np.array([s.bits_per_second for s in specs])
    rtts = np.array([s.rtt_seconds for s in specs])
    rc = np.array(codes, dtype=np.intp)
    transfer = 8.0 * np.array(tbytes, dtype=np.float64) / rates[rc]
    per_frame = (time_model.per_message_overhead + rtts[rc]) * np.array(
        frames, dtype=np.float64
    )
    return (
        transfer + per_frame,
        float(np.sum(transfer)),
        float(np.sum(per_frame)),
    )


def _utilization(link_ids, busy, seconds: float) -> dict[str, float]:
    """Each link's busy seconds (``busy``: link id → seconds) as a share
    of ``seconds``; every simulator core reports utilization through it."""
    return {
        link_id: (busy.get(link_id, 0.0) / seconds if seconds else 0.0)
        for link_id in link_ids
    }


def _take(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a[s, cols[s]]`` for every row; a 1-D ``cols`` is shared by all."""
    if cols.ndim == 1:
        return a[:, cols]
    return a[np.arange(len(a))[:, None], cols]


def _put(cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_take`: ``out[s, cols[s, k]] = values[s, k]``."""
    out = np.empty_like(values)
    if cols.ndim == 1:
        out[:, cols] = values
    else:
        out[np.arange(len(out))[:, None], cols] = values
    return out


def _serve(layout: _Layout, keys, ready, costs, free, busy=None):
    """Serve ``layout``'s records FIFO per segment — ``end_i = max(ready_i,
    end_{i-1}) + cost_i`` — as one independent schedule per row.

    ``ready`` and ``costs`` are ``(S, m)`` in the layout's column (name)
    order. ``keys`` — ``(S, m)`` arrays, least significant first — are
    the scalar loop's sort key minus its trailing name, which the column
    order supplies; with no keys every row serves in name order and the
    whole service layout is shared. ``free`` (``(S, segments)``: when
    each segment can next serve) is advanced in place, and ``busy``, when
    given, accumulates each segment's served cost in service order.

    Returns ``(order, starts, ends)``: each row's processing order as
    column indices (1-D when shared), and the per-record start and end
    times back in column order.
    """
    if keys:
        order = np.lexsort(keys, axis=1)
        slot = _take(order, np.argsort(layout.seg[order], axis=1, kind="stable"))
    else:
        order = np.arange(layout.rec.size)
        slot = layout.by_seg
    # Scan order: grouped by segment, service order within each.
    queued_ready = _take(ready, slot)
    queued_costs = _take(costs, slot)
    starts = np.empty_like(queued_ready)
    ends = np.empty_like(queued_ready)
    for slots, segs in layout.levels:
        start = np.maximum(queued_ready[:, slots], free[:, segs])
        end = start + queued_costs[:, slots]
        starts[:, slots] = start
        ends[:, slots] = end
        free[:, segs] = end
    if busy is not None:
        np.add.at(
            busy, (np.arange(len(busy))[:, None], layout.seg_scan), queued_costs
        )
    return order, _put(slot, starts), _put(slot, ends)


def replay_run_vectorized(sim, steps, *, overlap: bool, trace: bool = False):
    """Replay ``S >= 1`` structurally identical steps as one array pass.

    ``steps`` must hold one skeleton (see :func:`structure_groups`);
    ``sim`` — a ``NetworkSimulator`` — supplies
    the timeline, link model, time model and priority. The event order is
    documented in :mod:`repro.netsim.scheduler`, whose scalar loop is the
    reference this kernel matches bit for bit on every schedule time.
    Returns one :class:`~repro.netsim.events.SimulatedStep` per step. With
    ``trace`` and a tracer on ``sim``, each row's per-record times go to
    ``sim._trace_step``, which lays the group out on the trace clock.
    """
    trace = trace and sim.tracer is not None
    tm = sim.time_model
    batch = record_batch(steps[0])
    push, pull = batch.push, batch.pull
    S = len(steps)
    rows = np.arange(S)
    smallest = sim.priority == "smallest"

    compute = tm.compute_scale * np.array([st.compute_seconds for st in steps])
    push_cost = tm.codec_scale * np.array(
        [st.push_compress_seconds for st in steps]
    )
    server_cost = tm.codec_scale * np.array(
        [st.server_decompress_seconds + st.server_compress_seconds for st in steps]
    )
    pull_cost = tm.codec_scale * np.array(
        [st.pull_decompress_seconds for st in steps]
    )

    # Each step's numbers (wire bytes, elements, copies, frames in record
    # order), sliced into each phase's layout below. Below 2**53 a float
    # product of bytes and copies is the records' int product, rounded once.
    wire_bytes, elements, copies, frames = np.stack(
        [st.numbers for st in steps], axis=1
    ).astype(np.float64)
    total_bytes = wire_bytes * copies
    rates, rtts = batch.route_arrays(sim.link_model)
    per_frame = tm.per_message_overhead + rtts

    def wire(phase, pos):
        """One phase's (elements, transfer seconds, per-frame seconds)."""
        rc = phase.route_code
        return (
            elements[:, pos],
            8.0 * total_bytes[:, pos] / rates[rc],
            per_frame[rc] * frames[:, pos],
        )

    def tiebreak(elements, layout):
        """What ranks between readiness and name in a row's service order
        (the scalar reference's ``_tiebreak``): nothing by registration,
        the element count under the "smallest" priority."""
        return (elements[:, layout.rec],) if smallest else ()

    E_push, xfer_push, frame_push = wire(push, batch.push_pos)
    E_pull, xfer_pull, frame_pull = wire(pull, batch.pull_pos)
    occ_push = xfer_push + frame_push
    occ_pull = xfer_pull + frame_pull

    # -- push compression: one serial pipeline per sending worker ----------
    if overlap and push.n:
        pipes = batch.pipelines
        max_frac = batch.max_ready_fraction(sim.timeline, sim._ready_fraction)
        grad_ready = (compute[:, None] * max_frac[None, :])[:, pipes.rec]
        # Per-pipeline element totals: whole numbers, so any summation
        # order is exact.
        elements = E_push[:, pipes.rec]
        totals = np.add.reduceat(elements[:, pipes.by_seg], pipes.seg_first, axis=1)
        per_total = totals[:, pipes.seg]
        costs = np.where(
            per_total > 0,
            (push_cost[:, None] * elements)
            / np.where(per_total > 0, per_total, 1.0),
            0.0,
        )
        _, _, ends = _serve(
            pipes,
            (*tiebreak(E_push, pipes), grad_ready),
            grad_ready,
            costs,
            np.zeros((S, batch.num_pipelines)),
        )
        compressed = _put(pipes.rec, ends)
    else:
        compressed = np.broadcast_to((compute + push_cost)[:, None], (S, push.n))

    num_routes = len(batch.route_names)
    link_free = np.zeros((S, num_routes))
    if any(st.link_down for st in steps):
        # Injected-fault outage floors seed each row's link-free times
        # (service order is floor-independent). Routes carrying no records
        # this step are timing no-ops.
        route_index = {route: i for i, route in enumerate(batch.route_names)}
        for s, st in enumerate(steps):
            for route, down in st.link_down:
                i = route_index.get(route)
                if i is not None:
                    link_free[s, i] = max(link_free[s, i], down)
    link_busy = np.zeros((S, num_routes))
    end_by_name = np.zeros((S, batch.num_names))
    # Per-record transfer (starts, ends) in record order, kept only to trace.
    push_times = pull_times = None
    if trace:
        push_times = np.empty((S, push.n)), np.empty((S, push.n))
        pull_times = np.empty((S, pull.n)), np.empty((S, pull.n))

    def link_wave(wave, keys, ready, occ, best, times):
        """Serve one dependency wave on its links. Returns the wave's last
        end per row, the rows where it strictly exceeds ``best``, and for
        those rows the column of the first record in processing order to
        attain it — the scalar loop's running ``end > best`` — with that
        record's start (unspecified elsewhere)."""
        order, starts, ends = _serve(
            wave, keys, ready, occ[:, wave.rec], link_free, link_busy
        )
        if wave.names_unique:
            # The recorded invariant; max is exact either way.
            end_by_name[:, wave.names] = np.maximum(
                end_by_name[:, wave.names], ends
            )
        else:
            np.maximum.at(end_by_name, (rows[:, None], wave.names), ends)
        if times is not None:
            times[0][:, wave.rec] = starts
            times[1][:, wave.rec] = ends
        peak = ends.max(axis=1)
        better = peak > best
        first = (_take(ends, order) == peak[:, None]).argmax(axis=1)
        col = order[first] if order.ndim == 1 else order[rows, first]
        return peak, better, col, starts[rows, col]

    def dep_end(wave, tier_floor):
        if overlap:
            return wave.dep_ends(end_by_name)
        # Serialized schedules are fully staged: a tier starts only after
        # the whole previous tier has landed — what makes the schedule
        # equal the analytic per-tier sum.
        return np.where(wave.has_deps, tier_floor[:, None], 0.0)

    # -- push transmission: FIFO per link, in dependency tiers -------------
    push_end = compute.copy() if push.n == 0 else np.zeros(S)
    bneck_idx = np.full(S, -1, dtype=np.intp)
    bneck_bound = np.zeros(S, dtype=bool)
    tier_floor = np.zeros(S)
    for wave in push.waves:
        ready = np.maximum(compressed[:, wave.rec], dep_end(wave, tier_floor))
        peak, better, col, start = link_wave(
            wave,
            (*tiebreak(E_push, wave), ready),
            ready,
            occ_push,
            push_end,
            push_times,
        )
        push_end = np.where(better, peak, push_end)
        bneck_idx = np.where(better, wave.rec[col], bneck_idx)
        bneck_bound = np.where(
            better, start > ready[rows, col] + 1e-15, bneck_bound
        )
        tier_floor = np.maximum(tier_floor, peak)
    # The barrier cannot release before the slowest worker's backward;
    # when that floor binds, the step is compute-bound.
    barrier_floor = compute if overlap else compute + push_cost
    capped = barrier_floor > push_end
    push_end = np.where(capped, barrier_floor, push_end)
    bneck_idx[capped] = -1

    # -- server phase and pulls (service order ignores readiness) ----------
    pull_ready = push_end + server_cost
    phase_end = pull_ready.copy()
    last_idx = np.full(S, -1, dtype=np.intp)
    tier_floor = pull_ready.copy()
    for wave in pull.waves:
        base = np.maximum(pull_ready[:, None], dep_end(wave, tier_floor))
        peak, better, col, _ = link_wave(
            wave, tiebreak(E_pull, wave), base, occ_pull, phase_end, pull_times
        )
        phase_end = np.where(better, peak, phase_end)
        last_idx = np.where(better, wave.rec[col], last_idx)
        tier_floor = np.maximum(tier_floor, peak)
    step_seconds = phase_end + pull_cost

    # -- bookkeeping --------------------------------------------------------
    # Row-by-row 1-D sums: an axis-1 reduction blocks its pairwise
    # summation differently and drifts a ulp from the per-step totals.
    comm = np.zeros(S)
    overhead = np.zeros(S)
    for terms, out in (
        (xfer_push, comm),
        (frame_push, overhead),
        (xfer_pull, comm),
        (frame_pull, overhead),
    ):
        for s in range(S):
            out[s] += np.add.reduce(terms[s])
    codec = push_cost + server_cost + pull_cost
    exposed = np.maximum(0.0, step_seconds - compute - codec - overhead)
    safe_compute = np.where(compute > 0, compute, 1.0)
    achieved = np.where(
        compute > 0,
        np.minimum(1.0, np.maximum(0.0, (comm - exposed) / safe_compute)),
        0.0,
    )

    link_ids = sim.link_model.link_ids
    route_names = batch.route_names
    results = []
    for s, st in enumerate(steps):
        ss = float(step_seconds[s])
        busy_of = dict(zip(route_names, link_busy[s].tolist()))
        bi = int(bneck_idx[s])
        bottleneck = (push.records[bi], bool(bneck_bound[s])) if bi >= 0 else None
        li = int(last_idx[s])
        last_pull = pull.records[li] if li >= 0 else None
        results.append(
            SimulatedStep(
                step=st.step,
                step_seconds=ss,
                serialized_seconds=ss,
                compute_seconds=float(compute[s]),
                codec_seconds=float(codec[s]),
                comm_seconds=float(comm[s]),
                overhead_seconds=float(overhead[s]),
                exposed_seconds=float(exposed[s]),
                achieved_overlap=float(achieved[s]) if overlap else 0.0,
                link_utilization=_utilization(link_ids, busy_of, ss),
                critical_path=sim._critical_path(
                    bottleneck, last_pull, overlap, pull.n > 0
                ),
            )
        )
        if trace:
            sim._trace_step(
                st, push.records, st.numbers[1, batch.push_pos].tolist(), pull.records,
                overlap=overlap,
                compressed_at=compressed[s].tolist(),
                push_times=[t[s].tolist() for t in push_times],
                pull_times=[t[s].tolist() for t in pull_times],
                push_end=float(push_end[s]),
                phase_end=float(phase_end[s]),
            )
    return results
