"""The event-driven simulator as it stood before its send path was unified.

A verbatim copy of ``EventDrivenSimulator`` with duplicated push and pull
enqueue / release / arrival closures, a dict per flight, and a
``link_serving`` map. ``test_event_parity.py`` holds the live simulator to
it: every ``SimulatedExchange`` equal and every traced span identical, in
order, arguments included. It is an executable spec, not production code.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count

from repro.netsim.events import (
    SimulatedExchange,
    SimulatedUpdate,
    StepTransmissions,
    TransmissionRecord,
    UpdateTransmissions,
)
from repro.netsim.links import LinkModel
from repro.netsim.scheduler import (
    NetworkSimulator,
    _hidden_fraction,
    _trace_codec_pipelines,
)
from repro.netsim.vector import dependency_waves, wire_occupancy_batch
from repro.network.timing import StepTimeModel
from repro.nn.stats import BackwardTimeline


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
        if staleness is not None and staleness < 0:
            raise ValueError("staleness must be >= 0 or None")
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
            serialized_baseline=False,
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
                "built with sim_overlap=True in an async/SSP mode?"
            )
        for e in events:
            # Surface unknown/circular record dependencies up front with
            # the step scheduler's error messages instead of deadlocking
            # the event loop.
            dependency_waves(e.records)
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
        down: dict[str, float] = {}
        for e in generation:
            for route, floor in e.link_down:
                down[route] = max(down.get(route, 0.0), floor)
        return StepTransmissions(
            step=generation[0].local_step,
            compute_seconds=max(e.compute_seconds for e in generation),
            push_compress_seconds=max(e.push_compress_seconds for e in generation),
            server_decompress_seconds=sum(e.server_seconds for e in generation),
            server_compress_seconds=sum(e.pull_compress_seconds for e in generation),
            pull_decompress_seconds=max(
                e.pull_decompress_seconds for e in generation
            ),
            records=tuple(r for e in generation for r in e.records),
            link_down=tuple(sorted(down.items())),
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
            link_utilization={
                link_id: (busy.get(link_id, 0.0) / now if now else 0.0)
                for link_id in self.link_model.link_ids
            },
        )

    # -- async / staleness>0: the discrete-event loop ----------------------

    def _simulate_events(self, events) -> SimulatedExchange:
        tm = self.time_model
        codec_scale = tm.codec_scale
        tracer = self.tracer
        trace_group = self.trace_group

        # Resolve every record's wire occupancy up front in one batched
        # pass (and bank the comm/overhead totals from the same arrays);
        # the event loop then reads plain floats instead of re-deriving
        # link specs per enqueue.
        flat_records: list[TransmissionRecord] = []
        shape: list[tuple[int, int]] = []
        for e in events:
            pushes = tuple(r for r in e.records if r.phase != "pull")
            pulls = tuple(r for r in e.records if r.phase == "pull")
            flat_records.extend(pushes)
            flat_records.extend(pulls)
            shape.append((len(pushes), len(pulls)))
        occ_all, comm, overhead = wire_occupancy_batch(
            flat_records, self.link_model, tm
        )
        occ_list = occ_all.tolist()
        push_occ: dict[int, list[float]] = {}
        pull_occ: dict[int, list[float]] = {}
        pos = 0
        for e, (n_push, n_pull) in zip(events, shape):
            push_occ[e.update] = occ_list[pos : pos + n_push]
            pos += n_push
            pull_occ[e.update] = occ_list[pos : pos + n_pull]
            pos += n_pull

        # Injected-fault outage floors (absolute simulated time): a route
        # serves nothing before its floor. Windows ride dedicated
        # outage:<route> tracks so link:<route> span totals still
        # reconcile with link_busy.
        down_until: dict[str, float] = {}
        for e in events:
            for route, floor in e.link_down:
                down_until[route] = max(down_until.get(route, 0.0), floor)
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

        link_queue: dict[str, deque] = {}
        link_serving: dict[str, bool] = {}
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
        def enqueue(
            route: str,
            duration: float,
            on_done,
            now: float,
            label: str = "xfer",
            span_args: dict | None = None,
        ) -> None:
            queue = link_queue.setdefault(route, deque())
            queue.append((duration, on_done, label, span_args))
            if not link_serving.get(route, False):
                serve_next(route, now)

        def serve_next(route: str, now: float) -> None:
            queue = link_queue[route]
            if not queue:
                link_serving[route] = False
                return
            link_serving[route] = True
            floor = down_until.get(route, 0.0)
            if now < floor:
                # The route is down: hold the head of the queue (keeping
                # the link marked serving so no other enqueue races past)
                # and retry when the outage lifts.
                schedule(
                    floor, _P_ENQUEUE, lambda t, r=route: serve_next(r, t)
                )
                return
            duration, on_done, label, span_args = queue.popleft()
            end = now + duration
            transfer_intervals.append((now, end))
            link_busy[route] = link_busy.get(route, 0.0) + duration
            if tracer is not None:
                # Span duration equals the occupancy charged to link_busy,
                # so per-link span sums reconcile with link_utilization.
                tracer.span(
                    trace_group, f"link:{route}", label, now, end,
                    **(span_args or {}),
                )

            def finish(t: float) -> None:
                on_done(t)
                serve_next(route, t)

            schedule(end, _P_XFER, finish)

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
            pushes = tuple(r for r in e.records if r.phase != "pull")
            flight = {
                "event": e,
                "start": now,
                "pushes_left": len(pushes),
                "push_done": {},
            }

            if not pushes:
                if tracer is not None and push_cost > 0.0:
                    tracer.span(
                        trace_group, f"codec:w{w}", f"push-compress:u{e.update}",
                        compute_end, compute_end + push_cost,
                        worker=w, update=e.update,
                    )
                schedule(
                    compute_end + push_cost,
                    _P_ENQUEUE,
                    lambda t, f=flight: pushes_arrived(f, t),
                )
                return
            # Same per-worker compression pipeline as the step replay,
            # offset to this update's compute start. Records with
            # dependencies (hierarchical tier coupling) enter their link
            # queue only once every named record's transfer completed.
            compressed_at = self._steps._push_compressed_at(
                pushes, compute, push_cost, overlap=self.overlap
            )
            if tracer is not None and push_cost > 0.0:
                if not self.overlap:
                    tracer.span(
                        trace_group, f"codec:w{w}", f"push-compress:u{e.update}",
                        compute_end, compute_end + push_cost,
                        worker=w, update=e.update,
                    )
                else:
                    _trace_codec_pipelines(
                        tracer, trace_group, now, pushes, compressed_at,
                        push_cost, unit=w, update=e.update,
                    )
            waiting: dict[int, tuple[str, ...]] = {}

            occ = push_occ[e.update]

            def enqueue_push(index: int, t: float) -> None:
                record = pushes[index]
                enqueue(
                    record.route,
                    occ[index],
                    lambda td, i=index: push_arrived(flight, i, td),
                    t,
                    record.name,
                    {
                        "phase": record.phase,
                        "worker": record.worker,
                        "update": e.update,
                    },
                )

            def release_ready(now_t: float) -> None:
                done = flight["push_done"]
                for index in sorted(waiting):
                    if all(d in done for d in waiting[index]):
                        del waiting[index]
                        # The record enters its link queue only once both
                        # its dependencies landed (now_t) and its own
                        # compression slot passed — schedule the enqueue
                        # rather than queueing early, so a busy link does
                        # not serve it before it is compressed.
                        schedule(
                            max(now_t, now + compressed_at[index]),
                            _P_ENQUEUE,
                            lambda t, i=index: enqueue_push(i, t),
                        )

            flight["release_pushes"] = release_ready
            for index, record in enumerate(pushes):
                if record.depends_on:
                    waiting[index] = record.depends_on
                else:
                    schedule(
                        now + compressed_at[index],
                        _P_ENQUEUE,
                        lambda t, i=index: enqueue_push(i, t),
                    )

        def push_arrived(flight: dict, index: int, now: float) -> None:
            record = tuple(r for r in flight["event"].records if r.phase != "pull")[index]
            done = flight["push_done"]
            done[record.name] = max(done.get(record.name, 0.0), now)
            flight["pushes_left"] -= 1
            flight["release_pushes"](now)
            if flight["pushes_left"] == 0:
                pushes_arrived(flight, now)

        def pushes_arrived(flight: dict, now: float) -> None:
            """All of this update's pushes reached the server: serialize
            the apply (commit) and the per-worker pull compression."""
            nonlocal server_free
            e = flight["event"]
            begin = max(now, server_free)
            commit = begin + codec_scale * e.server_seconds
            pulls_ready = commit + codec_scale * e.pull_compress_seconds
            server_free = pulls_ready
            if tracer is not None:
                tracer.span(
                    trace_group, "server", f"commit:u{e.update}",
                    begin, pulls_ready, worker=e.worker,
                )
            flight["commit"] = commit
            schedule(commit, _P_COMMIT, lambda t, f=flight: committed_at(f, t))
            schedule(pulls_ready, _P_PULLS, lambda t, f=flight: send_pulls(f, t))

        def committed_at(flight: dict, now: float) -> None:
            w = flight["event"].worker
            committed[w] += 1
            for v in sorted(blocked):
                if gate_open(v):
                    blocked.discard(v)
                    schedule(
                        max(ready[v], now), _P_START, lambda t, v=v: start_update(v, t)
                    )

        def send_pulls(flight: dict, now: float) -> None:
            e = flight["event"]
            pulls = tuple(r for r in e.records if r.phase == "pull")
            flight["pulls_left"] = len(pulls)
            if not pulls:
                update_done(flight, now)
                return
            # Push transfers all landed before the server phase, so a pull
            # depending on a push-phase record is immediately ready; a
            # pull depending on another pull (the intra-rack broadcast of
            # a cross-rack delta) waits for that transfer.
            satisfied = {r.name for r in e.records if r.phase != "pull"}
            waiting: dict[int, tuple[str, ...]] = {}

            occ = pull_occ[e.update]

            def enqueue_pull(index: int, t: float) -> None:
                record = pulls[index]
                enqueue(
                    record.route,
                    occ[index],
                    lambda td, i=index: pull_arrived(flight, i, td),
                    t,
                    record.name,
                    {
                        "phase": record.phase,
                        "worker": record.worker,
                        "update": e.update,
                    },
                )

            def release_ready(now_t: float) -> None:
                for index in sorted(waiting):
                    if all(d in satisfied for d in waiting[index]):
                        del waiting[index]
                        enqueue_pull(index, now_t)

            flight["release_pulls"] = release_ready
            flight["pull_satisfied"] = satisfied
            for index, record in enumerate(pulls):
                if record.depends_on and not all(
                    d in satisfied for d in record.depends_on
                ):
                    waiting[index] = record.depends_on
                else:
                    enqueue_pull(index, now)

        def pull_arrived(flight: dict, index: int, now: float) -> None:
            record = tuple(r for r in flight["event"].records if r.phase == "pull")[index]
            flight["pull_satisfied"].add(record.name)
            flight["pulls_left"] -= 1
            flight["release_pulls"](now)
            if flight["pulls_left"] == 0:
                update_done(flight, now)

        def update_done(flight: dict, now: float) -> None:
            e = flight["event"]
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
                    start_seconds=flight["start"],
                    commit_seconds=flight["commit"],
                    done_seconds=done,
                    staleness=e.staleness,
                )
            )
            next_index[w] += 1
            if next_index[w] < len(by_worker[w]):
                if gate_open(w):
                    schedule(done, _P_START, lambda t, w=w: start_update(w, t))
                else:
                    blocked.add(w)

        for w in workers:
            if gate_open(w):
                schedule(0.0, _P_START, lambda t, w=w: start_update(w, t))
            else:  # pragma: no cover - first steps are never gated
                blocked.add(w)

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
            link_utilization={
                link_id: (link_busy.get(link_id, 0.0) / total if total else 0.0)
                for link_id in self.link_model.link_ids
            },
        )
