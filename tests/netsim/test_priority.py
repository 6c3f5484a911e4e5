"""Transmission-priority knob: smallest-gradient-first service order.

``priority="smallest"`` is a simulation-side knob the plan autotuner
searches over: at equal readiness the link serves the smallest compressed
gradient first (elements, then name) instead of registration order. The
scalar loop is the reference semantics; the array kernel must match it
bit-for-bit, whole runs included — element counts vary per step, so each
row of a replayed group sorts into its own service order.
"""

import random

from repro.netsim.events import StepTransmissions, TransmissionRecord
from repro.netsim.links import LinkModel
from repro.netsim.scheduler import NetworkSimulator
from repro.network.bandwidth import LinkSpec
from repro.nn.stats import BackwardTimeline, LayerTiming

from test_vector_parity import (  # same-directory module (pytest prepend)
    assert_scalar_parity,
    random_run,
    random_timeline,
)


def one_layer_timeline() -> BackwardTimeline:
    return BackwardTimeline((LayerTiming("layer0", 0.01, ("p0",)),))


def crafted_step() -> tuple[LinkModel, StepTransmissions]:
    """A small push on 'up' gates a dependent transfer on 'up2'.

    Registration (= name) order serves ``a_big`` before ``b_small`` on the
    shared uplink, so the dependent ``c_out`` starts late; smallest-first
    flips the order and the dependent transfer overlaps the big one.
    """
    links = LinkModel(
        "crafted",
        {"up": LinkSpec("up", 1e8), "up2": LinkSpec("up2", 1e8)},
    )
    records = (
        TransmissionRecord(
            name="a_big", params=("p0",), wire_bytes=10_000_000,
            elements=2_500_000, route="up", worker=0, phase="push", frames=1,
        ),
        TransmissionRecord(
            name="b_small", params=("p0",), wire_bytes=10_000,
            elements=2_500, route="up", worker=1, phase="push", frames=1,
        ),
        TransmissionRecord(
            name="c_out", params=(), wire_bytes=1_000_000,
            elements=250_000, route="up2", worker=None, phase="push",
            frames=1, depends_on=("b_small",),
        ),
    )
    step = StepTransmissions(
        step=0, compute_seconds=0.01, push_compress_seconds=0.0,
        server_decompress_seconds=0.0, pull_decompress_seconds=0.0,
        records=records,
    )
    return links, step


def make_sim(links, *, priority: str, vectorized: bool) -> NetworkSimulator:
    return NetworkSimulator(
        one_layer_timeline(),
        links,
        overlap=True,
        vectorized=vectorized,
        priority=priority,
    )


def test_unknown_priority_rejected():
    links, _ = crafted_step()
    try:
        make_sim(links, priority="fifo", vectorized=True)
    except ValueError as error:
        assert "fifo" in str(error)
    else:
        raise AssertionError("bad priority accepted")


def test_smallest_unblocks_dependent_transfer():
    links, step = crafted_step()
    registration = make_sim(links, priority="registration", vectorized=False)
    smallest = make_sim(links, priority="smallest", vectorized=False)
    reg = registration.simulate_run((step,)).steps[0]
    small = smallest.simulate_run((step,)).steps[0]
    # Small-first lets c_out ride the second uplink while a_big is still
    # on the wire; registration order serializes them.
    assert small.step_seconds < reg.step_seconds
    assert reg.critical_path != small.critical_path


def test_smallest_scalar_vector_bit_parity():
    for trial in range(20):
        rng = random.Random(7000 + trial)
        links, steps = random_run(rng, rng.randint(3, 6))
        timeline = random_timeline(rng)
        vec = NetworkSimulator(
            timeline, links, overlap=True, vectorized=True,
            priority="smallest",
        )
        scalar = NetworkSimulator(
            timeline, links, overlap=True, vectorized=False,
            priority="smallest",
        )
        for st in steps:
            assert_scalar_parity(
                vec.simulate_run((st,)).steps[0], scalar.simulate_run((st,)).steps[0]
            )


def test_simulate_run_equals_per_step_under_smallest():
    """'smallest' runs replay as one group whose rows each keep their own
    service order; the run must equal the per-step results exactly."""
    rng = random.Random(4242)
    links, steps = random_run(rng, 5)
    timeline = random_timeline(rng)
    sim = NetworkSimulator(
        timeline, links, overlap=True, vectorized=True, priority="smallest"
    )
    batched = sim.simulate_run(steps).steps
    fresh = NetworkSimulator(
        timeline, links, overlap=True, vectorized=True, priority="smallest"
    )
    per_step = [fresh.simulate_run((st,)).steps[0] for st in steps]
    assert list(batched) == per_step


def test_priorities_share_recordings_but_not_schedules():
    """The same plan stream under both priorities: schedules may differ,
    but total link-busy time is conserved (ordering never changes bytes)."""
    links, step = crafted_step()
    reg = make_sim(links, priority="registration", vectorized=True)
    small = make_sim(links, priority="smallest", vectorized=True)
    a = reg.simulate_run((step,)).steps[0]
    b = small.simulate_run((step,)).steps[0]
    assert abs(a.comm_seconds - b.comm_seconds) < 1e-12
