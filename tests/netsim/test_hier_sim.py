"""Simulator tests for the composed two-tier (hierarchical) link model.

The load-bearing assertions:

* the serialized hierarchical schedule equals the analytic **per-tier
  sum** at ``overlap=0`` to 1e-9 (the acceptance criterion): compute +
  push codec + max-over-racks intra collectives + serialized cross
  pushes + server codec + serialized cross pulls + max-over-racks
  broadcasts + pull codec, with per-frame overhead *and* per-frame link
  RTT inside each transfer;
* ``rtt_seconds`` is charged per wire frame in both simulators (ring hop
  pipelines and slow uplinks are no longer free of propagation delay);
* dependency tiers: a dependent record never starts before its
  dependency's transfer ends, and unknown/circular dependencies are
  rejected with a clear error.
"""

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import MODELED, EngineConfig, ExchangeEngine
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    StepTransmissions,
    TransmissionRecord,
    dependency_waves,
    hierarchical_links,
    link_model_for,
    per_tier_serialized_seconds,
)
from repro.network.bandwidth import LinkSpec, link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import BackwardTimeline, LayerTiming

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)
SIMPLE_TIMELINE = BackwardTimeline(
    (LayerTiming("top", 0.5, ("b",)), LayerTiming("bottom", 0.5, ("a",)))
)
MBPS = LinkSpec("1Mbps", 1e6)


def train_hier_engine(steps: int = 4, **overrides):
    config = dict(
        num_workers=4,
        batch_size=8,
        shard_size=32,
        cluster_seed=0,
        topology="hier",
        racks=2,
        rack_size=2,
        sim_overlap=True,
    )
    config.update(overrides)
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=1),
        dataset,
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**config),
    )
    engine.train(steps)
    return engine, dataset


def hier_model(link_name: str = "10Mbps", **kwargs):
    defaults = dict(
        racks=2, rack_size=2, cross_bw_fraction=0.1, cross_rtt_seconds=0.002
    )
    defaults.update(kwargs)
    return link_model_for("hier", link(link_name), **defaults)


class TestSerializedMatchesPerTierSum:
    @pytest.mark.parametrize("link_name", ["10Mbps", "100Mbps", "1Gbps"])
    def test_serialized_equals_closed_form(self, link_name):
        """Acceptance: serialized schedule == analytic two-tier sum, 1e-9."""
        engine, _ = train_hier_engine()
        lm = hier_model(link_name)
        sim = NetworkSimulator(SIMPLE_TIMELINE, lm, TIME_MODEL, overlap=False)
        for st in engine.transmissions:
            step = sim.simulate_run((st,)).steps[0]
            assert step.step_seconds == pytest.approx(
                per_tier_serialized_seconds(st, lm, TIME_MODEL), abs=1e-9
            )

    def test_overlap_never_slower_and_reports_tier_utilization(self):
        engine, dataset = train_hier_engine()
        from repro.nn.stats import profile_backward

        timeline = profile_backward(
            build_resnet(8, base_width=4, seed=1), *dataset.train_shard(0, 8)
        )
        lm = hier_model()
        serialized = NetworkSimulator(
            timeline, lm, TIME_MODEL, overlap=False
        ).simulate_run(engine.transmissions)
        overlapped = NetworkSimulator(
            timeline, lm, TIME_MODEL, overlap=True
        ).simulate_run(engine.transmissions)
        assert (
            overlapped.mean_step_seconds
            <= serialized.mean_step_seconds * (1 + 1e-9)
        )
        utilization = overlapped.mean_link_utilization
        assert set(utilization) == {
            "rack0", "rack1", "cross:rack0", "cross:rack1",
        }
        # The 10x-scarcer core is the busy tier.
        assert utilization["cross:rack0"] > utilization["rack0"]

    def test_critical_path_crosses_both_tiers(self):
        engine, _ = train_hier_engine()
        sim = NetworkSimulator(
            SIMPLE_TIMELINE, hier_model(), TIME_MODEL, overlap=False
        )
        step = sim.simulate_run((engine.transmissions[0],)).steps[0]
        labels = " ".join(step.critical_path)
        assert "xfer:cross" in labels
        assert "xfer:rack" in labels


class TestRtt:
    def test_linkspec_validates_rtt(self):
        with pytest.raises(ValueError, match="rtt_seconds"):
            LinkSpec("bad", 1e6, rtt_seconds=-0.001)
        with pytest.raises(TypeError, match="rtt_seconds"):
            LinkSpec("bad", 1e6, rtt_seconds="fast")
        assert LinkSpec("ok", 1e6).rtt_seconds == 0.0

    def test_rtt_charged_per_frame_in_step_scheduler(self):
        """A ring collective of F frames pays exactly F * rtt extra."""
        st = StepTransmissions(
            step=0,
            compute_seconds=1.0,
            records=(
                TransmissionRecord(
                    name="b",
                    params=("b",),
                    wire_bytes=125_000,
                    elements=100,
                    route="ring",
                    phase="collective",
                    frames=6,
                ),
            ),
        )
        tm = StepTimeModel(per_message_overhead=0.0)
        flat = NetworkSimulator(
            SIMPLE_TIMELINE,
            hierarchical_links(MBPS, MBPS, racks=1, rack_size=2),
            tm,
            overlap=False,
        )
        # Reuse the ring channel name through a one-off model.
        from repro.netsim import LinkModel

        for rtt in (0.0, 0.004):
            lm = LinkModel("ring-rtt", {"ring": LinkSpec("1Mbps", 1e6, rtt)})
            sim = NetworkSimulator(SIMPLE_TIMELINE, lm, tm, overlap=False)
            step = sim.simulate_run((st,)).steps[0]
            if rtt == 0.0:
                base = step.step_seconds
            else:
                assert step.step_seconds == pytest.approx(base + 6 * rtt)
                assert step.overhead_seconds == pytest.approx(6 * rtt)
        assert flat is not None  # the factory accepts equal specs

    def test_rtt_charged_in_event_simulator(self):
        engine, dataset = train_hier_engine(
            sync_mode="async", clock=MODELED, steps=6
        )
        from repro.nn.stats import profile_backward

        timeline = profile_backward(
            build_resnet(8, base_width=4, seed=1), *dataset.train_shard(0, 8)
        )
        free = EventDrivenSimulator(
            timeline, hier_model(cross_rtt_seconds=0.0), TIME_MODEL
        ).simulate(engine.update_events)
        delayed = EventDrivenSimulator(
            timeline, hier_model(cross_rtt_seconds=0.01), TIME_MODEL
        ).simulate(engine.update_events)
        assert delayed.total_seconds > free.total_seconds
        assert delayed.overhead_seconds > free.overhead_seconds


class TestDependencyWaves:
    def rec(self, name, deps=(), phase="push"):
        return TransmissionRecord(
            name=name,
            params=(),
            wire_bytes=1,
            elements=1,
            route="cross:rack0",
            phase=phase,
            depends_on=tuple(deps),
        )

    def test_waves_order_tiers(self):
        records = [
            self.rec("up", deps=("collective",)),
            self.rec("collective"),
            self.rec("final", deps=("up",)),
        ]
        waves = dependency_waves(records)
        assert waves == [[1], [0], [2]]

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown record"):
            dependency_waves([self.rec("a", deps=("ghost",))])

    def test_external_names_count_as_done(self):
        waves = dependency_waves(
            [self.rec("a", deps=("pushed",))], external_names={"pushed"}
        )
        assert waves == [[0]]

    def test_cycle_rejected(self):
        records = [
            self.rec("a", deps=("b",)),
            self.rec("b", deps=("a",)),
        ]
        with pytest.raises(ValueError, match="circular"):
            dependency_waves(records)

    def test_self_dependency_rejected_at_construction(self):
        with pytest.raises(ValueError, match="depend on itself"):
            self.rec("a", deps=("a",))

    def test_dependent_record_waits_for_dependency_transfer(self):
        """With zero compute, the dependent transfer starts only after its
        dependency lands — the step takes both transfers back to back even
        though they use different links."""
        st = StepTransmissions(
            step=0,
            compute_seconds=0.0,
            records=(
                TransmissionRecord(
                    name="collective",
                    params=(),
                    wire_bytes=125_000,
                    elements=1,
                    route="rack0",
                    phase="collective",
                ),
                TransmissionRecord(
                    name="up",
                    params=(),
                    wire_bytes=125_000,
                    elements=1,
                    route="cross:rack0",
                    phase="push",
                    depends_on=("collective",),
                ),
            ),
        )
        lm = hierarchical_links(
            MBPS, MBPS, racks=1, rack_size=2
        )
        tm = StepTimeModel(per_message_overhead=0.0)
        step = NetworkSimulator(
            SIMPLE_TIMELINE, lm, tm, overlap=True
        ).simulate_run((st,)).steps[0]
        # 1 s per transfer at 1 Mbps; sequential despite disjoint links.
        assert step.step_seconds == pytest.approx(2.0)


class TestHierLinkFactories:
    def test_link_ids(self):
        lm = hierarchical_links(MBPS, MBPS, racks=3, rack_size=2)
        assert lm.link_ids == (
            "rack0",
            "rack1",
            "rack2",
            "cross:rack0",
            "cross:rack1",
            "cross:rack2",
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="rack ring"):
            hierarchical_links(MBPS, MBPS, racks=2, rack_size=1)
        with pytest.raises(ValueError, match="cross_bw_fraction"):
            link_model_for(
                "hier", MBPS, racks=2, rack_size=2, cross_bw_fraction=0.0
            )

    def test_link_model_for_scales_cross_tier(self):
        lm = link_model_for(
            "hier",
            link("100Mbps"),
            racks=2,
            rack_size=2,
            cross_bw_fraction=0.25,
            cross_rtt_seconds=0.003,
        )
        assert lm.spec("rack0").bits_per_second == 100e6
        assert lm.spec("cross:rack0").bits_per_second == pytest.approx(25e6)
        assert lm.spec("cross:rack1").rtt_seconds == 0.003
        assert lm.spec("rack0").rtt_seconds == 0.0
