"""The event-driven simulator against its parent, on random update streams.

``event_oracle.EventDrivenSimulator`` is the simulator before its push and
pull paths became one send routine. On every stream :func:`streams` draws —
flat and hierarchical routes with collective → uplink and crossing →
broadcast dependency chains, outage floors, every staleness mode, both
overlap and priority settings — the live simulator must return an equal
``SimulatedExchange`` and emit the identical span list, in order and with
the same arguments. Compute, codec and wire times come from a small set of
exact binary values so that timestamps tie and the heap's tie order is
exercised, not just its time order.

``TestLaws`` states what must hold whatever the schedule, on the same
generator's fault-free streams, and pins the one expected law that fails:
SSP time is not monotone in the staleness bound.
"""

from dataclasses import replace

from event_oracle import EventDrivenSimulator as OracleSimulator
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import EventDrivenSimulator, TransmissionRecord, UpdateTransmissions
from repro.netsim.links import LinkModel
from repro.network.bandwidth import LinkSpec
from repro.network.timing import StepTimeModel
from repro.nn.stats import BackwardTimeline, LayerTiming
from repro.telemetry import Tracer

TIMELINE = BackwardTimeline(
    (LayerTiming("top", 0.5, ("b",)), LayerTiming("bottom", 0.5, ("a",)))
)
FLAT_ROUTES = ("server", "shard0", "shard1")
#: Compute and codec seconds.
SECONDS = (0.0, 0.5, 1.0)
#: 0, 0.5 and 1 s on a 1 Mbps link.
BYTES = (0, 62_500, 125_000)
PARAMS = ((), ("a",), ("b",), ("a", "b"))


def links(bits_per_second: float = 1e6) -> LinkModel:
    """Every route either shape uses, all at one rate and no RTT."""
    routes = FLAT_ROUTES + ("rack0", "rack1", "cross:rack0", "cross:rack1")
    return LinkModel("any", {r: LinkSpec(r, bits_per_second) for r in routes})


@st.composite
def layouts(draw, worker: int, hier: bool):
    """One worker's record skeleton: (name, phase, route, params, deps)."""
    out = []
    if hier:
        rack = worker % 2
        collectives = [f"w{worker}c{i}" for i in range(draw(st.integers(1, 2)))]
        for name in collectives:
            params = draw(st.sampled_from(PARAMS))
            out.append((name, "collective", f"rack{rack}", params, ()))
        uplink = f"cross:rack{rack}"
        out.append((f"w{worker}up", "push", uplink, (), tuple(collectives)))
        if draw(st.booleans()):
            down = f"w{worker}down"
            out.append((down, "pull", uplink, (), ()))
            out.append((f"w{worker}bc", "pull", f"rack{rack}", (), (down,)))
        return out
    pushes: list[str] = []
    for i in range(draw(st.integers(0, 2))):
        deps = (pushes[-1],) if pushes and draw(st.booleans()) else ()
        pushes.append(f"w{worker}p{i}")
        route = draw(st.sampled_from(FLAT_ROUTES))
        out.append((pushes[-1], "push", route, draw(st.sampled_from(PARAMS)), deps))
    landed = list(pushes)
    for i in range(draw(st.integers(0, 2))):
        deps = ()
        if landed and draw(st.booleans()):
            deps = (draw(st.sampled_from(landed)),)
        landed.append(f"w{worker}q{i}")
        route = draw(st.sampled_from(FLAT_ROUTES))
        out.append((landed[-1], "pull", route, (), deps))
    return out


@st.composite
def streams(draw, faults: bool = True, updates: int = 3):
    """A random update stream: 1–3 workers of 1–``updates`` updates each,
    committed round-robin, on one topology shape; with ``faults`` some
    updates carry ``link_down`` floors."""
    hier = draw(st.booleans())
    counts = draw(st.lists(st.integers(1, updates), min_size=1, max_size=3))
    layout = {w: draw(layouts(w, hier)) for w in range(len(counts))}
    order = [(w, k) for k in range(max(counts)) for w, n in enumerate(counts) if k < n]
    events = []
    for update, (w, k) in enumerate(order):
        records = tuple(
            TransmissionRecord(
                name=name,
                params=params,
                wire_bytes=draw(st.sampled_from(BYTES)),
                elements=draw(st.sampled_from((1, 2, 4))),
                route=route,
                worker=None if phase == "pull" else w,
                phase=phase,
                frames=draw(st.integers(1, 2)),
                depends_on=deps,
            )
            for name, phase, route, params, deps in layout[w]
        )
        link_down = ()
        if faults and draw(st.booleans()):
            routes = sorted({r[2] for r in layout[w]} or {"server"})
            floor = draw(st.sampled_from((0.0, 0.5, 1.5, 3.0)))
            link_down = ((draw(st.sampled_from(routes)), floor),)
        seconds = st.sampled_from(SECONDS)
        events.append(
            UpdateTransmissions(
                update=update,
                worker=w,
                local_step=k,
                global_step=update,
                staleness=draw(st.integers(0, 2)),
                clock_seconds=0.0,
                compute_seconds=draw(seconds),
                push_compress_seconds=draw(seconds),
                server_seconds=draw(seconds),
                pull_compress_seconds=draw(seconds),
                pull_decompress_seconds=draw(seconds),
                records=records,
                link_down=link_down,
            )
        )
    return events


STALENESS = st.sampled_from((None, 0, 1, 2, 3))


def simulator(cls=EventDrivenSimulator, *, overhead=0.0, rate=1e6, **kwargs):
    return cls(
        TIMELINE, links(rate), StepTimeModel(per_message_overhead=overhead), **kwargs
    )


def spans(tracer: Tracer) -> list[tuple]:
    return [
        (s.group, s.track, s.name, s.start, s.end, tuple(s.args.items()))
        for s in tracer.spans
    ]


@settings(max_examples=500)
@given(
    streams(),
    STALENESS,
    st.booleans(),
    st.sampled_from(("registration", "smallest")),
    st.sampled_from((0.0, 0.25)),
)
def test_matches_parent_bit_for_bit(events, staleness, overlap, priority, overhead):
    results, emitted = [], []
    for cls in (EventDrivenSimulator, OracleSimulator):
        tracer = Tracer()
        sim = simulator(
            cls, overhead=overhead, tracer=tracer,
            staleness=staleness, overlap=overlap, priority=priority,
        )
        results.append(sim.simulate(events))
        emitted.append(spans(tracer))
    assert results[0] == results[1]
    assert emitted[0] == emitted[1]


class TestLaws:
    """First-principles properties of the event loop on fault-free streams."""

    @given(streams(faults=False), STALENESS, st.booleans())
    def test_no_link_is_busy_longer_than_the_run(self, events, staleness, overlap):
        exchange = simulator(staleness=staleness, overlap=overlap).simulate(events)
        assert all(u <= 1.0 for u in exchange.link_utilization.values())

    @given(streams(faults=False), STALENESS, st.booleans())
    def test_never_slower_than_one_serial_chain(self, events, staleness, overlap):
        exchange = simulator(staleness=staleness, overlap=overlap).simulate(events)
        assert exchange.total_seconds <= exchange.serialized_seconds

    @given(streams(faults=False), STALENESS, st.sampled_from(("server", "rack0")))
    def test_a_zero_floor_is_the_identity(self, events, staleness, route):
        floored = [replace(e, link_down=((route, 0.0),)) for e in events]
        sim = simulator(staleness=staleness)
        assert sim.simulate(floored) == sim.simulate(events)

    @given(streams(faults=False), STALENESS, st.booleans())
    def test_doubling_bytes_and_rates_keeps_the_time(self, events, staleness, overlap):
        doubled = [
            replace(e, records=tuple(
                replace(r, wire_bytes=2 * r.wire_bytes) for r in e.records
            ))
            for e in events
        ]
        base = simulator(staleness=staleness, overlap=overlap).simulate(events)
        scaled = simulator(staleness=staleness, overlap=overlap, rate=2e6)
        twice = scaled.simulate(doubled).total_seconds
        assert abs(twice - base.total_seconds) <= 1e-9 * base.total_seconds

    def test_ssp_monotonicity_is_not_a_law(self):
        """A tighter staleness bound can finish first (ARCHITECTURE.md,
        "Event-driven modes"). Worker 0's updates are free except its
        third, which holds the serial server for 1 s. Unbounded, it
        takes the server at t=0; worker 1's first commit queues behind it
        until 1.0, and its 1 s second compute ends at 2.0. SSP(1) holds
        worker 0's third update until worker 1's first commit at 0.5, so
        the server hold runs under worker 1's second compute: 1.5 s.

        Hypothesis shrank the anomaly to an 11-update, three-worker
        stream with the same 1.5 s against 2.0 s; this stream is a hand
        reduction of it with the same mechanism."""

        def update(index, worker, step, compute=0.0, pull_compress=0.0):
            return UpdateTransmissions(
                update=index, worker=worker, local_step=step,
                global_step=index, staleness=0, clock_seconds=0.0,
                compute_seconds=compute, pull_compress_seconds=pull_compress,
            )

        events = [
            update(0, 0, 0),
            update(1, 1, 0, compute=0.5),
            update(2, 0, 1),
            update(3, 1, 1, compute=1.0),
            update(4, 0, 2, pull_compress=1.0),
        ]
        total = {
            s: simulator(staleness=s).simulate(events).total_seconds
            for s in (0, 1, 2, None)
        }
        assert total == {0: 2.5, 1: 1.5, 2: 2.0, None: 2.0}
