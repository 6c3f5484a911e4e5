"""Tests for the discrete-event network simulator.

The load-bearing assertions:

* the serialized schedule reproduces the analytic ``StepTimeModel`` closed
  form at ``overlap=0`` (the acceptance criterion's 1% bound — the two are
  identical by construction, so we assert much tighter);
* per-layer overlap reports a *measured* overlap fraction in (0, 1] and
  never slows a step down;
* fused buckets wait for their last member gradient;
* the ring is charged per-link, not through a fictitious server NIC.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.netsim import (
    EventDrivenSimulator,
    LinkModel,
    NetworkSimulator,
    SimulatedRun,
    StepTransmissions,
    TransmissionRecord,
    UpdateTransmissions,
    link_model_for,
    ring_links,
    sharded_links,
    single_server_links,
)
from repro.network.bandwidth import LinkSpec, link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import BackwardTimeline, LayerTiming


def make_timeline(spec: list[tuple[str, float, tuple[str, ...]]]) -> BackwardTimeline:
    return BackwardTimeline(
        tuple(LayerTiming(label, seconds, params) for label, seconds, params in spec)
    )


#: Two-layer model: backward visits "top" first (producing b's gradient),
#: then "bottom" (producing a's gradient).
SIMPLE_TIMELINE = make_timeline(
    [("top", 0.5, ("b",)), ("bottom", 0.5, ("a",))]
)


def simple_step(
    *,
    push_bytes: int = 125_000,
    compute: float = 1.0,
    frames: int = 1,
    pull_bytes: int = 0,
) -> StepTransmissions:
    records = [
        TransmissionRecord(
            name="b",
            params=("b",),
            wire_bytes=push_bytes,
            elements=100,
            route="server",
            worker=0,
            frames=frames,
        )
    ]
    if pull_bytes:
        records.append(
            TransmissionRecord(
                name="b",
                params=("b",),
                wire_bytes=pull_bytes,
                elements=100,
                route="server",
                phase="pull",
                copies=2,
            )
        )
    return StepTransmissions(
        step=0, compute_seconds=compute, records=tuple(records)
    )


MBPS = LinkSpec("1Mbps", 1e6)  # 125 kB/s: a 125000-byte push takes 1 s


class TestScheduler:
    def test_overlap_hides_transfer_behind_backward(self):
        # b's gradient is ready at t=0.5; its 1 s transfer ends at 1.5 —
        # 0.5 s hid under the remaining backward half.
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(),
            overlap=True, serialized_baseline=True,
        )
        step = sim.simulate_run((simple_step(frames=1),)).steps[0]
        overhead = StepTimeModel().per_message_overhead
        assert step.step_seconds == pytest.approx(1.5 + overhead)
        assert step.serialized_seconds == pytest.approx(2.0 + overhead)
        assert step.achieved_overlap == pytest.approx(0.5)

    def test_serialized_mode_reports_zero_overlap(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=False
        )
        step = sim.simulate_run((simple_step(),)).steps[0]
        assert step.achieved_overlap == 0.0
        assert step.step_seconds == pytest.approx(step.serialized_seconds)

    def test_overlap_never_slower_than_serialized(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(),
            overlap=True, serialized_baseline=True,
        )
        for push_bytes in (1_000, 125_000, 10_000_000):
            step = sim.simulate_run((simple_step(push_bytes=push_bytes),)).steps[0]
            assert step.step_seconds <= step.serialized_seconds + 1e-12

    def test_pull_phase_cannot_overlap_compute(self):
        # Pulls exist only after the global update: even with overlap on,
        # the pull transfer extends the step past compute end.
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        st = simple_step(push_bytes=1_000, pull_bytes=62_500)
        step = sim.simulate_run((st,)).steps[0]
        # push (8 ms) hides entirely; two pull copies take 1 s after compute.
        assert step.step_seconds > 2.0
        assert 0.0 < step.achieved_overlap <= 1.0

    def test_fused_bucket_waits_for_last_member(self):
        # A bucket carrying gradients from both layers cannot transmit at
        # 0.5 (when "b" is ready): it waits for "a" at compute end.
        bucket = StepTransmissions(
            step=0,
            compute_seconds=1.0,
            records=(
                TransmissionRecord(
                    name="bucket:0",
                    params=("a", "b"),
                    wire_bytes=125_000,
                    elements=100,
                    route="server",
                    worker=0,
                ),
            ),
        )
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        step = sim.simulate_run((bucket,)).steps[0]
        assert step.step_seconds >= 2.0  # no overlap possible
        assert step.achieved_overlap == pytest.approx(0.0)

    def test_link_utilization_bounded_and_reported(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        step = sim.simulate_run((simple_step(),)).steps[0]
        assert set(step.link_utilization) == {"server"}
        assert 0.0 < step.link_utilization["server"] <= 1.0

    def test_critical_path_names_events(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        step = sim.simulate_run((simple_step(),)).steps[0]
        assert any(label.startswith("backward:") for label in step.critical_path)
        assert any(label.startswith("xfer:server") for label in step.critical_path)

    def test_compute_bound_step_blames_backward_not_transfer(self):
        # A 1-byte push finishes long before backward: the step is
        # compute-bound and the critical path must not name the transfer.
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        step = sim.simulate_run((simple_step(push_bytes=1),)).steps[0]
        assert step.critical_path[0] == "backward:end"
        assert not any(
            label.startswith("xfer:") for label in step.critical_path
        )

    def test_unknown_route_rejected(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        bad = StepTransmissions(
            step=0,
            compute_seconds=1.0,
            records=(
                TransmissionRecord(
                    name="b", params=("b",), wire_bytes=10, elements=1, route="shard9"
                ),
            ),
        )
        with pytest.raises(ValueError, match="unknown link 'shard9'"):
            sim.simulate_run((bad,))

    def test_empty_run_rejected(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        with pytest.raises(ValueError, match="sim_overlap"):
            sim.simulate_run([])

    def test_sharded_links_parallelize(self):
        # Two equal pushes on one NIC serialize; on two NICs they don't.
        def step_on(route_a: str, route_b: str) -> StepTransmissions:
            return StepTransmissions(
                step=0,
                compute_seconds=0.0,
                records=(
                    TransmissionRecord(
                        name="a", params=(), wire_bytes=125_000, elements=1,
                        route=route_a, worker=0,
                    ),
                    TransmissionRecord(
                        name="b", params=(), wire_bytes=125_000, elements=1,
                        route=route_b, worker=0,
                    ),
                ),
            )

        single = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        ).simulate_run((step_on("server", "server"),)).steps[0]
        sharded = NetworkSimulator(
            SIMPLE_TIMELINE, sharded_links(MBPS, 2), StepTimeModel(), overlap=True
        ).simulate_run((step_on("shard0", "shard1"),)).steps[0]
        assert sharded.step_seconds < single.step_seconds


class TestLinkModels:
    def test_factories(self):
        assert single_server_links(MBPS).link_ids == ("server",)
        assert sharded_links(MBPS, 3).link_ids == ("shard0", "shard1", "shard2")
        assert ring_links(MBPS, 4).link_ids == ("ring",)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel("empty", {})
        with pytest.raises(ValueError):
            sharded_links(MBPS, 0)
        with pytest.raises(ValueError):
            ring_links(MBPS, 1)
        with pytest.raises(ValueError, match="unknown topology"):
            link_model_for("mesh", MBPS)

    def test_link_model_for_matches_factories(self):
        assert link_model_for("single", MBPS).link_ids == ("server",)
        assert link_model_for("sharded", MBPS, num_shards=2).link_ids == (
            "shard0",
            "shard1",
        )
        assert link_model_for("ring", MBPS, num_workers=2).link_ids == ("ring",)


# -- end-to-end: engine recordings through the simulator -------------------


def train_engine(topology: str, steps: int = 4, **overrides):
    config = dict(
        num_workers=2,
        batch_size=8,
        shard_size=32,
        cluster_seed=0,
        topology=topology,
        sim_overlap=True,
    )
    config.update(overrides)
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=1),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**config),
    )
    engine.train(steps)
    return engine


@pytest.fixture(scope="module")
def profiled():
    """A trained single-topology engine plus its backward timeline."""
    from repro.nn.stats import profile_backward

    engine = train_engine("single")
    model = build_resnet(8, base_width=4, seed=1)
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    images, labels = dataset.train_shard(0, 8)
    timeline = profile_backward(model, images, labels)
    return engine, timeline


class TestAgainstAnalyticModel:
    def test_serialized_matches_closed_form_within_1_percent(self, profiled):
        """Acceptance: serialized simulation == analytic model, overlap=0."""
        engine, timeline = profiled
        model = StepTimeModel(
            overlap=0.0,
            per_message_overhead=25e-6,
            compute_scale=0.05,
            codec_scale=0.5,
        )
        for link_name in ("10Mbps", "100Mbps", "1Gbps"):
            spec = link(link_name)
            sim = NetworkSimulator(
                timeline, single_server_links(spec), model, overlap=False
            )
            run = sim.simulate_run(engine.transmissions)
            analytic = sum(
                model.step_seconds(s, spec) for s in engine.traffic.steps
            ) / len(engine.traffic.steps)
            assert run.mean_step_seconds == pytest.approx(analytic, rel=0.01)

    def test_overlap_reports_measured_fraction(self, profiled):
        """Acceptance: measured overlap in (0, 1], not the 0.9 constant."""
        engine, timeline = profiled
        model = StepTimeModel(compute_scale=0.05, codec_scale=0.5)
        sim = NetworkSimulator(
            timeline, single_server_links(link("10Mbps")), model, overlap=True,
            serialized_baseline=True,
        )
        run = sim.simulate_run(engine.transmissions)
        assert 0.0 < run.mean_overlap <= 1.0
        assert run.mean_step_seconds <= (
            sum(s.serialized_seconds for s in run.steps) / len(run.steps)
        )

    def test_recorded_bytes_and_frames_match_traffic_meter(self, profiled):
        engine, _ = profiled
        for st, traffic in zip(engine.transmissions, engine.traffic.steps):
            push = sum(
                r.total_bytes for r in st.records if r.phase in ("push", "collective")
            )
            pull = sum(r.total_bytes for r in st.records if r.phase == "pull")
            assert push == traffic.push_bytes
            assert pull == traffic.pull_bytes_total
            assert sum(r.frames for r in st.records) == traffic.frames
            assert st.codec_seconds == pytest.approx(traffic.codec_seconds)

    def test_ring_charged_per_link_not_server_nic(self):
        """Acceptance: ring step times reflect per-link transfer."""
        engine = train_engine("ring")
        model = StepTimeModel(
            overlap=0.0,
            per_message_overhead=0.0,
            compute_scale=0.05,
            codec_scale=0.5,
        )
        spec = link("10Mbps")
        sim = NetworkSimulator(
            # Any timeline works: serialized mode ignores readiness order.
            SIMPLE_TIMELINE,
            ring_links(spec, 2),
            model,
            overlap=False,
        )
        run = sim.simulate_run(engine.transmissions)
        analytic = sum(
            model.step_seconds(s, spec) for s in engine.traffic.steps
        ) / len(engine.traffic.steps)
        # The server-NIC closed form charges the sum over every ring link;
        # the simulator charges the (parallel) per-link volume, which for
        # 2 nodes is half the total.
        assert run.mean_step_seconds < analytic
        for st, traffic in zip(engine.transmissions, engine.traffic.steps):
            per_link = sum(r.total_bytes for r in st.records)
            assert 0 < per_link < traffic.push_bytes

    def test_ring_frames_accounted_per_link(self):
        # Simulator records carry one link's frames (the N hop links run
        # in parallel); the meter keeps the all-links aggregate.
        workers = 2
        engine = train_engine("ring")
        for st, traffic in zip(engine.transmissions, engine.traffic.steps):
            assert sum(r.frames for r in st.records) * workers == traffic.frames

    def test_fused_run_records_buckets(self):
        engine = train_engine("single", fuse_small_tensors=True)
        names = {
            r.name
            for st in engine.transmissions
            for r in st.records
        }
        assert any(name.startswith("bucket:") for name in names)
        # Bucket records carry their member params for readiness lookups.
        for st in engine.transmissions:
            for record in st.records:
                if record.name.startswith("bucket:"):
                    assert len(record.params) > 1


class TestSimulatedRunAggregates:
    def test_aggregates(self):
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, single_server_links(MBPS), StepTimeModel(), overlap=True
        )
        run = sim.simulate_run([simple_step(), simple_step()])
        assert isinstance(run, SimulatedRun)
        assert run.total_seconds == pytest.approx(2 * run.mean_step_seconds)
        assert set(run.mean_link_utilization) == {"server"}

    def test_record_validation(self):
        with pytest.raises(ValueError, match="phase"):
            TransmissionRecord(
                name="x", params=(), wire_bytes=1, elements=1, route="server",
                phase="teleport",
            )
        with pytest.raises(ValueError, match="copies"):
            TransmissionRecord(
                name="x", params=(), wire_bytes=1, elements=1, route="server",
                copies=0,
            )
        # Every size is a whole count a wire carries: integers only (bool
        # refused), sizes >= 0, fan-out and frames >= 1; names are str.
        rows = [
            ({"wire_bytes": 2.5}, "wire_bytes must be an integer >= 0, got 2.5"),
            ({"wire_bytes": float("nan")}, "wire_bytes must be an integer >= 0, got nan"),
            ({"wire_bytes": -1}, "wire_bytes must be an integer >= 0, got -1"),
            ({"wire_bytes": True}, "wire_bytes must be an integer >= 0, got True"),
            ({"elements": 1.0}, "elements must be an integer >= 0, got 1.0"),
            ({"elements": -3}, "elements must be an integer >= 0, got -3"),
            ({"copies": True}, "copies must be an integer >= 1, got True"),
            ({"copies": 2.0}, "copies must be an integer >= 1, got 2.0"),
            ({"frames": 1.5}, "frames must be an integer >= 1, got 1.5"),
            ({"frames": 0}, "frames must be an integer >= 1, got 0"),
            ({"worker": -1}, "worker must be an integer >= 0, got -1"),
            ({"worker": 0.0}, "worker must be an integer >= 0, got 0.0"),
            ({"worker": False}, "worker must be an integer >= 0, got False"),
            ({"name": 7}, "record: name must be a str, got 7"),
            ({"route": None}, "route must be a str, got None"),
            ({"params": ["p"]}, "params must be a tuple of str, got ['p']"),
            ({"params": ("p", 1)}, "params must be a tuple of str, got ('p', 1)"),
            ({"depends_on": ["a"]}, "depends_on must be a tuple of str, got ['a']"),
            ({"depends_on": (None,)}, "depends_on must be a tuple of str, got (None,)"),
            ({"depends_on": ("x",)}, "record 'x': record cannot depend on itself"),
        ]
        base = dict(name="x", params=("p",), wire_bytes=1, elements=1, route="server")
        for change, message in rows:
            with pytest.raises(ValueError) as raised:
                TransmissionRecord(**{**base, **change})
            assert message in str(raised.value), change
        # The example from the wire: 2.5 bytes in 1.5 frames, copied True
        # times, names the first bad field.
        with pytest.raises(ValueError, match="wire_bytes must be an integer"):
            TransmissionRecord(**{**base, "wire_bytes": 2.5, "frames": 1.5, "copies": True})
        # Integral types that are not int are whole counts too.
        record = TransmissionRecord(
            **{**base, "wire_bytes": np.int64(8), "worker": np.int32(2)}
        )
        assert record.wire_bytes == 8 and record.worker == 2


class TestPlanSeconds:
    """A plan's seconds are finite and >= 0, so no simulator can read a
    step time the plan did not carry. On a 10 Mbps server link one
    1000-byte push after 0.01 s of compute takes 0.010825 s; before the
    rule, ``compute_seconds=nan`` simulated to 0.0 s, ``-1.0`` to
    0.000825 s, and a NaN outage floor silently vanished."""

    LINKS = single_server_links(link("10Mbps"))
    TIMELINE = make_timeline([("layer", 1.0, ("p",))])
    RECORD = TransmissionRecord(
        name="p", params=("p",), wire_bytes=1000, elements=250, route="server",
        worker=0,
    )

    def bsp(self, **seconds) -> float:
        step = StepTransmissions(step=0, records=(self.RECORD,), **seconds)
        return NetworkSimulator(
            self.TIMELINE, self.LINKS, StepTimeModel(), overlap=True
        ).simulate_run((step,)).steps[0].step_seconds

    def event(self, **seconds) -> float:
        update = UpdateTransmissions(
            update=0, worker=0, local_step=0, global_step=0, staleness=0,
            records=(self.RECORD,), **{"clock_seconds": 0.0, **seconds},
        )
        return EventDrivenSimulator(
            self.TIMELINE, self.LINKS, StepTimeModel(), staleness=None
        ).simulate([update]).total_seconds

    @pytest.mark.parametrize("simulate", ["bsp", "event"])
    def test_finite_seconds_simulate(self, simulate):
        run = getattr(self, simulate)
        assert run(compute_seconds=0.01) == pytest.approx(0.010825, rel=1e-12)
        floored = run(compute_seconds=0.01, link_down=(("server", 0.05),))
        assert floored == pytest.approx(0.050825, rel=1e-12)

    SECONDS = {
        "bsp": (
            "step",
            [
                "compute_seconds",
                "push_compress_seconds",
                "server_decompress_seconds",
                "server_compress_seconds",
                "pull_decompress_seconds",
                "link_down",
            ],
        ),
        "event": (
            "update",
            [
                "clock_seconds",
                "compute_seconds",
                "push_compress_seconds",
                "server_seconds",
                "pull_compress_seconds",
                "pull_decompress_seconds",
                "link_down",
            ],
        ),
    }

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")], ids=str)
    @pytest.mark.parametrize(
        "simulate, field",
        [(simulate, f) for simulate, (_, fields) in SECONDS.items() for f in fields],
    )
    def test_bad_seconds_are_refused(self, simulate, field, value):
        seconds = {"compute_seconds": 0.01}
        if field == "link_down":
            seconds["link_down"] = (("server", value),)
            named = "link_down['server']"
        else:
            seconds[field] = value
            named = field
        with pytest.raises(ValueError) as raised:
            getattr(self, simulate)(**seconds)
        owner = self.SECONDS[simulate][0]
        assert str(raised.value) == (
            f"{owner} 0: {named} must be finite and >= 0, got {value!r}"
        )
