"""Differential property tests: the array replay kernel vs the scalar loop.

The scalar per-record loop in :class:`NetworkSimulator`
(``vectorized=False``) is the reference semantics; the array kernel must
schedule *identical* events whatever group it is handed — one step, two,
a whole run; either priority; rows with no compute; rows with their own
outage floors; dependency tiers. Since its FIFO passes perform the scalar
loop's exact IEEE operations (depth-wise sweep, no prefix-sum
re-association), parity on schedule times is bit-exact, not merely within
tolerance — which matters because per-worker codec costs are
element-shares of one budget, so distinct pipelines finish in exact
real-arithmetic ties and a 1-ulp perturbation can flip a (ready, name)
service order into a macroscopically different schedule.

Aggregate totals (``comm_seconds`` / ``overhead_seconds``) are summed
pairwise by NumPy and sequentially by the scalar loop, so they carry a
float-association tolerance; they feed no ordering decisions.
"""

import random
from dataclasses import replace

import pytest

from repro.netsim import link_model_for
from repro.netsim.events import (
    StepTransmissions,
    TransmissionRecord,
    updates_from_bsp_steps,
)
from repro.netsim.links import LinkModel
from repro.netsim.scheduler import EventDrivenSimulator, NetworkSimulator
from repro.network.bandwidth import LinkSpec
from repro.nn.stats import BackwardTimeline, LayerTiming
from repro.telemetry import Tracer
from repro.telemetry.export import chrome_trace
from repro.telemetry.validate import validate_chrome_trace

SUM_TOL = 1e-12


def random_run(rng: random.Random, n_steps: int, *, faults: bool = False):
    """A random small topology plus a structurally constant plan stream:
    names, routes, workers, params and dependency tiers are drawn once,
    the numbers (bytes, frames, elements, seconds) per step. With
    ``faults`` some steps carry their own ``link_down`` floors and one
    step of a longer run has no compute at all."""
    n_routes = rng.randint(1, 4)
    specs = {
        f"link{r}": LinkSpec(
            f"link{r}",
            rng.choice([1e8, 1e9, 25e9]),
            rtt_seconds=rng.choice([0.0, 1e-4]),
        )
        for r in range(n_routes)
    }
    links = LinkModel("rand", specs)
    n_workers = rng.randint(1, 5)
    n_rec = rng.randint(1, 8)
    layout = []
    for i in range(n_rec):
        phase = rng.choice(["push", "pull"])
        route = f"link{rng.randrange(n_routes)}"
        worker = rng.choice([None, rng.randrange(n_workers)])
        params = tuple(sorted({f"p{rng.randrange(4)}" for _ in range(rng.randint(0, 2))}))
        # Dependencies: earlier same-phase records, or (pulls) pushes.
        candidates = [
            other[0]
            for other in layout
            if other[1] == phase or (phase == "pull" and other[1] != "pull")
        ]
        deps = (
            tuple(rng.sample(candidates, k=1))
            if candidates and rng.random() < 0.4
            else ()
        )
        layout.append((f"r{i}", phase, route, worker, params, deps))
    zero_compute = rng.randrange(n_steps) if faults and n_steps > 2 else None
    steps = []
    for s in range(n_steps):
        records = tuple(
            TransmissionRecord(
                name=name,
                phase=phase,
                route=route,
                worker=worker,
                params=params,
                depends_on=deps,
                wire_bytes=rng.randrange(1, 10_000_000),
                frames=rng.randrange(1, 20),
                elements=rng.randrange(1, 100_000),
            )
            for name, phase, route, worker, params, deps in layout
        )
        link_down = ()
        if faults and rng.random() < 0.5:
            # A floor on a live route, and one on a route nothing uses.
            link_down = (
                (f"link{rng.randrange(n_routes)}", rng.uniform(0.0, 0.08)),
                ("idle", 0.01),
            )
        steps.append(
            StepTransmissions(
                step=s,
                compute_seconds=0.0 if s == zero_compute else rng.uniform(0.001, 0.05),
                push_compress_seconds=rng.uniform(0.0, 0.01),
                server_decompress_seconds=rng.uniform(0.0, 0.005),
                server_compress_seconds=rng.uniform(0.0, 0.005),
                pull_decompress_seconds=rng.uniform(0.0, 0.005),
                records=records,
                link_down=link_down,
            )
        )
    return links, steps


def random_timeline(rng: random.Random) -> BackwardTimeline:
    return BackwardTimeline(
        tuple(
            LayerTiming(f"layer{i}", rng.uniform(0.5, 2.0), (f"p{i}",))
            for i in range(rng.randint(1, 4))
        )
    )


def assert_scalar_parity(vec_step, scalar_step):
    """Vector schedule times must equal the scalar reference bit-for-bit."""
    assert vec_step.step_seconds == scalar_step.step_seconds
    assert vec_step.serialized_seconds == scalar_step.serialized_seconds
    assert vec_step.critical_path == scalar_step.critical_path
    assert abs(vec_step.comm_seconds - scalar_step.comm_seconds) <= SUM_TOL * max(
        1.0, scalar_step.comm_seconds
    )
    assert abs(
        vec_step.overhead_seconds - scalar_step.overhead_seconds
    ) <= SUM_TOL * max(1.0, scalar_step.overhead_seconds)


@pytest.mark.parametrize("priority", ["registration", "smallest"])
@pytest.mark.parametrize("overlap", [True, False])
def test_randomized_topologies_bit_parity(overlap, priority):
    """40 random faulted topologies replayed as one group of 1, 2 or many
    steps: the run equals replaying each step alone (exact dataclass
    equality — nothing depends on how a run groups) and both match the
    scalar reference bit for bit on schedule times and critical paths."""
    for trial in range(40):
        rng = random.Random(1000 + trial)
        n_steps = (1, 2, rng.randint(3, 8))[trial % 3]
        links, steps = random_run(rng, n_steps, faults=True)
        assert all(st.skeleton is steps[0].skeleton for st in steps)
        timeline = random_timeline(rng)
        vec, scalar = (
            NetworkSimulator(
                timeline, links, overlap=overlap, priority=priority,
                vectorized=vectorized,
            )
            for vectorized in (True, False)
        )
        per_step = [vec.simulate_run((st,)).steps[0] for st in steps]
        batched = vec.simulate_run(steps).steps
        reference = scalar.simulate_run(steps).steps
        for b, p, s in zip(batched, per_step, reference):
            assert b == p, f"trial {trial}: batched diverged from per-step"
            assert_scalar_parity(b, s)


def hier_run(rng: random.Random, n_steps: int, racks: int = 2, rack_size: int = 3):
    """Hier-shaped faulted steps: worker pushes on their rack channel, one
    cross-rack aggregate per rack behind them, a down/bcast pull pipeline
    per rack, and an uplink outage floor on every other step."""
    steps = []
    for s in range(n_steps):
        records = []
        for rack in range(racks):
            members = range(rack * rack_size, (rack + 1) * rack_size)
            for wid in members:
                for t in range(2):
                    records.append(
                        TransmissionRecord(
                            name=f"w{wid}:t{t}",
                            params=(f"p{t}",),
                            wire_bytes=rng.randrange(2_000, 40_000),
                            elements=rng.randrange(5_000, 100_000),
                            route=f"rack{rack}",
                            worker=wid,
                            frames=1 + wid % 3,
                        )
                    )
            records.append(
                TransmissionRecord(
                    name=f"agg{rack}",
                    params=(),
                    wire_bytes=rng.randrange(20_000, 120_000),
                    elements=rng.randrange(50_000, 400_000),
                    route=f"cross:rack{rack}",
                    worker=None,
                    frames=2,
                    depends_on=tuple(f"w{wid}:t{t}" for wid in members for t in range(2)),
                )
            )
            records.append(
                TransmissionRecord(
                    name=f"down{rack}",
                    params=(),
                    wire_bytes=rng.randrange(20_000, 120_000),
                    elements=rng.randrange(50_000, 400_000),
                    route=f"cross:rack{rack}",
                    worker=None,
                    phase="pull",
                    frames=2,
                )
            )
            records.append(
                TransmissionRecord(
                    name=f"bcast{rack}",
                    params=(),
                    wire_bytes=rng.randrange(10_000, 60_000),
                    elements=rng.randrange(50_000, 400_000),
                    route=f"rack{rack}",
                    worker=None,
                    phase="pull",
                    frames=rack_size - 1,
                    depends_on=(f"down{rack}",),
                )
            )
        steps.append(
            StepTransmissions(
                step=s,
                compute_seconds=rng.uniform(0.04, 0.06),
                push_compress_seconds=rng.uniform(0.001, 0.003),
                server_decompress_seconds=rng.uniform(0.0005, 0.001),
                pull_decompress_seconds=rng.uniform(0.0005, 0.001),
                records=tuple(records),
                link_down=((("cross:rack1", rng.uniform(0.01, 0.09)),) if s % 2 else ()),
            )
        )
    return steps


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("priority", ["registration", "smallest"])
@pytest.mark.parametrize("overlap", [True, False])
def test_fault_free_steps_keep_the_lower_bounds(overlap, priority, vectorized):
    """Two laws of the BSP step model, exact (no slack): no link is busier
    than the step is long, and a step lasts at least its scaled compute,
    server codec and pull decode, which no schedule overlaps with each
    other. Fault-free: an outage floor may hold a link past its traffic."""
    for trial in range(40):
        rng = random.Random(5000 + trial)
        links, steps = random_run(rng, rng.randint(1, 8))
        sim = NetworkSimulator(
            random_timeline(rng), links, overlap=overlap, priority=priority,
            vectorized=vectorized,
        )
        tm = sim.time_model
        for st, step in zip(steps, sim.simulate_run(steps).steps):
            assert max(step.link_utilization.values()) <= 1.0, (trial, st.step)
            floor = (
                tm.compute_scale * st.compute_seconds
                + tm.codec_scale
                * (st.server_decompress_seconds + st.server_compress_seconds)
                + tm.codec_scale * st.pull_decompress_seconds
            )
            assert step.step_seconds >= floor, (trial, st.step)


@pytest.mark.parametrize("priority", ["registration", "smallest"])
def test_traced_spans_match_reference_in_time_order(priority):
    """One span layout for both paths: on a traced faulted hier run the
    array kernel and the scalar reference emit the same multiset of
    (track, name, start, end, args) bit for bit, every track's spans go
    out in time order, and the exported trace is strict-clean."""
    rng = random.Random(31)
    steps = hier_run(rng, 6)
    links = link_model_for(
        "hier", LinkSpec("100Mbps", 1e8), racks=2, rack_size=3,
        cross_bw_fraction=0.1, cross_rtt_seconds=1e-4,
    )
    timeline = BackwardTimeline(
        (LayerTiming("top", 0.7, ("p1",)), LayerTiming("bottom", 1.3, ("p0",)))
    )
    emitted = {}
    for vectorized in (True, False):
        tracer = Tracer()
        sim = NetworkSimulator(
            timeline, links, overlap=True, serialized_baseline=False,
            vectorized=vectorized, priority=priority,
            tracer=tracer, trace_group="sim",
        )
        run = sim.simulate_run(steps)
        assert sim.trace_offset == run.total_seconds
        emitted[vectorized] = sorted(
            (
                (s.track, s.name, s.start, s.end, tuple(s.args.items()))
                for s in tracer.spans
            ),
            key=repr,
        )
        last_start: dict[str, float] = {}
        for span in tracer.spans:
            assert span.start >= last_start.get(span.track, 0.0), span
            last_start[span.track] = span.start
        assert {"compute", "server", "outage:cross:rack1", "codec:w0"} <= set(last_start)
        assert validate_chrome_trace(chrome_trace(tracer), strict=True) == []
    assert emitted[True] == emitted[False]


def test_exact_tie_pipelines_match_scalar():
    """Pipelines whose codec shares sum to one budget end in an exact tie;
    the replay must break it like the scalar loop (regression test for the
    prefix-scan re-association flip)."""
    links = LinkModel("tie", {"up": LinkSpec("up", 1e9)})
    timeline = BackwardTimeline((LayerTiming("layer0", 1.0, ("p0",)),))
    records = tuple(
        TransmissionRecord(
            name=f"r{i}",
            params=(),
            wire_bytes=4096,
            elements=elements,
            route="up",
            worker=worker,
        )
        for i, (worker, elements) in enumerate([(0, 7), (1, 3), (1, 5)])
    )
    steps = [
        StepTransmissions(
            step=s,
            compute_seconds=0.03,
            push_compress_seconds=0.005,
            records=records,
        )
        for s in range(3)
    ]
    vec = NetworkSimulator(timeline, links, vectorized=True)
    scalar = NetworkSimulator(timeline, links, vectorized=False)
    for b, s in zip(vec.simulate_run(steps).steps, scalar.simulate_run(steps).steps):
        assert_scalar_parity(b, s)


def test_mixed_structure_grouping():
    """Alternating record structures split into singleton groups; a run
    with interleaved shapes must equal step-by-step simulation."""
    rng = random.Random(7)
    links, steps_a = random_run(rng, 4)
    # A second stream over the same links but different structure.
    rng2 = random.Random(7)
    _, steps_b = random_run(rng2, 4)
    steps_b = [
        StepTransmissions(
            step=st.step,
            compute_seconds=st.compute_seconds,
            push_compress_seconds=st.push_compress_seconds,
            records=st.records[:-1] if len(st.records) > 1 else st.records,
        )
        for st in steps_b
    ]
    interleaved = [
        st for pair in zip(steps_a, steps_b) for st in pair
    ]
    timeline = random_timeline(random.Random(7))
    vec = NetworkSimulator(timeline, links, vectorized=True)
    run = vec.simulate_run(interleaved).steps
    per_step = [vec.simulate_run((st,)).steps[0] for st in interleaved]
    assert list(run) == per_step


def test_zero_compute_row_inside_a_group():
    """A zero-compute step serves its compression pipelines in name order
    while its neighbours serve in gradient-ready order; it is an ordinary
    row of the group, not a reason to replay step by step."""
    rng = random.Random(11)
    links, steps = random_run(rng, 4)
    steps[1] = StepTransmissions(
        step=steps[1].step,
        compute_seconds=0.0,
        push_compress_seconds=steps[1].push_compress_seconds,
        records=steps[1].records,
    )
    assert all(st.skeleton is steps[0].skeleton for st in steps)
    timeline = random_timeline(random.Random(11))
    vec = NetworkSimulator(timeline, links, overlap=True, vectorized=True)
    scalar = NetworkSimulator(timeline, links, overlap=True, vectorized=False)
    run = vec.simulate_run(steps).steps
    per_step = [vec.simulate_run((st,)).steps[0] for st in steps]
    assert list(run) == per_step
    for b, s in zip(run, scalar.simulate_run(steps).steps):
        assert_scalar_parity(b, s)


def test_repeat_simulation_is_stable():
    """The record batch warmed on the shared skeleton must not change
    results: a second simulate_run is equal to the first."""
    rng = random.Random(23)
    links, steps = random_run(rng, 6)
    timeline = random_timeline(rng)
    vec = NetworkSimulator(timeline, links, vectorized=True)
    first = vec.simulate_run(steps)
    second = vec.simulate_run(steps)
    assert first == second


@pytest.mark.parametrize("seed", range(3))
def test_splitting_into_updates_and_regrouping_keeps_bytes_and_frames(seed):
    """``updates_from_bsp_steps`` then ``_generation_step`` gives each
    step back its total bytes and frames exactly: pushes ride their
    workers, and a shared pull's copies and frames spread over the first
    ``copies`` workers (remainder frames on the first ones)."""
    rng = random.Random(seed)
    racks, rack_size = 2, 3
    workers = racks * rack_size
    steps = hier_run(rng, 4, racks=racks, rack_size=rack_size)

    def spread(record):
        """The pull shared by up to every worker, with spare frames."""
        copies = rng.randint(1, workers)
        return replace(record, copies=copies, frames=copies + rng.randrange(4))

    shared = [
        replace(st, records=tuple(
            spread(r) if r.phase == "pull" else r for r in st.records
        ))
        for st in steps
    ]
    for run in (steps, shared):
        updates = updates_from_bsp_steps(run, workers)
        assert len(updates) == len(run) * workers
        for index, st in enumerate(run):
            generation = list(updates[index * workers:(index + 1) * workers])
            regrouped = EventDrivenSimulator._generation_step(generation)
            assert sum(r.total_bytes for r in regrouped.records) == sum(
                r.total_bytes for r in st.records
            )
            assert sum(r.frames for r in regrouped.records) == sum(
                r.frames for r in st.records
            )


def _one_step(*records):
    return (StepTransmissions(step=0, compute_seconds=0.1, records=records),)


_PUSH = TransmissionRecord("g", ("p0",), 10, 5, "server", worker=0)
_PULL = TransmissionRecord("d", ("p0",), 10, 5, "server", phase="pull")


@pytest.mark.parametrize(
    "steps, num_workers, message",
    [
        (
            _one_step(_PUSH, replace(_PULL, copies=4, frames=4)),
            2,
            "step 0: record 'd': 4 copies cannot split over num_workers=2",
        ),
        (
            _one_step(replace(_PUSH, worker=3), _PULL),
            2,
            "step 0: record 'g': sent by worker 3, past num_workers=2",
        ),
        (
            _one_step(_PUSH, _PULL),
            True,
            "updates_from_bsp_steps: num_workers must be an integer >= 1, got True",
        ),
    ],
    ids=["pull-copies", "push-worker", "bool-workers"],
)
def test_splitting_refuses_what_it_would_drop(steps, num_workers, message):
    with pytest.raises(ValueError) as raised:
        updates_from_bsp_steps(steps, num_workers)
    assert str(raised.value) == message
