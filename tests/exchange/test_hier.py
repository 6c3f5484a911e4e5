"""Hierarchical exchange: parity anchors and structural guarantees.

The load-bearing assertions:

* ``golden_hier_trace.json`` pins the fixed-seed hierarchical BSP schedule
  (per-step losses, per-tier byte split) against regressions;
* a one-rack hierarchy is refused by one rule, whatever it is combined
  with: it has no cross-rack tier, so it would be the plain ring;
* intra- and cross-rack bytes partition the wire total exactly, in BSP
  and async modes;
* the recorded transmission plans carry the tier coupling
  (``depends_on``) the simulator schedules.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.faults import FaultSpec, UplinkFlap
from repro.exchange import (
    MODELED,
    EngineConfig,
    ExchangeEngine,
    HierarchicalExchangeService,
    transmission_routes,
)
from repro.harness.cli import parse_config
from repro.nn import CosineDecay, build_resnet

GOLDEN_PATH = Path(__file__).parent / "golden_hier_trace.json"
GOLDEN_STEPS = 8


def make_engine(scheme_name: str = "3LC (s=1.00)", steps: int = 8, **overrides):
    kwargs = dict(
        num_workers=4,
        batch_size=8,
        shard_size=32,
        seed=0,
        topology="hier",
        racks=2,
        rack_size=2,
    )
    kwargs.update(overrides)
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**kwargs),
    )


class TestGoldenTrace:
    """The fixed-seed hierarchical BSP schedule is pinned exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("scheme", ["32-bit float", "3LC (s=1.00)"])
    def test_schedule_matches_golden(self, golden, scheme):
        expected = golden[scheme]
        engine = make_engine(scheme, steps=GOLDEN_STEPS)
        engine.train(GOLDEN_STEPS)
        assert [log.train_loss for log in engine.step_logs] == pytest.approx(
            expected["train_loss"], rel=0, abs=0
        )
        steps = engine.traffic.steps
        assert [s.push_bytes for s in steps] == expected["push_bytes"]
        assert [s.pull_bytes_shared for s in steps] == expected["pull_bytes_shared"]
        assert [s.intra_rack_bytes for s in steps] == expected["intra_rack_bytes"]
        assert [s.cross_rack_bytes for s in steps] == expected["cross_rack_bytes"]


class TestTwoTierAccounting:
    def test_split_partitions_wire_bytes_bsp(self):
        engine = make_engine()
        engine.train(4)
        for s in engine.traffic.steps:
            assert s.intra_rack_bytes > 0
            assert s.cross_rack_bytes > 0
            assert s.intra_rack_bytes + s.cross_rack_bytes == s.wire_bytes

    def test_split_partitions_wire_bytes_async(self):
        engine = make_engine(sync_mode="async", clock=MODELED)
        engine.train(6)
        for s in engine.traffic.steps:
            assert s.intra_rack_bytes + s.cross_rack_bytes == s.wire_bytes

    def test_compression_shrinks_cross_tier_most(self):
        """The paper's thesis at rack granularity: 3LC's reduction on the
        scarce cross tier exceeds raw float's by the compression ratio."""
        raw = make_engine("32-bit float")
        lossy = make_engine("3LC (s=1.00)")
        raw.train(3)
        lossy.train(3)
        assert (
            lossy.traffic.total_cross_rack_bytes
            < raw.traffic.total_cross_rack_bytes / 5
        )

    def test_codec_seconds_match_recorded_plan(self):
        engine = make_engine(record_transmissions=True)
        engine.train(3)
        for st, traffic in zip(engine.transmissions, engine.traffic.steps):
            assert st.codec_seconds == pytest.approx(traffic.codec_seconds)
            push = sum(
                r.total_bytes
                for r in st.records
                if r.phase in ("push", "collective")
            )
            # Collective records carry per-link (not all-links) volume, so
            # the recorded upward bytes are below the meter's aggregate.
            assert 0 < push < traffic.push_bytes


class TestRecording:
    def test_bsp_records_carry_tier_dependencies(self):
        engine = make_engine(record_transmissions=True)
        engine.train(2)
        st = engine.transmissions[0]
        routes = {r.route for r in st.records}
        assert routes == {"rack0", "rack1", "cross:rack0", "cross:rack1"}
        cross_pushes = [r for r in st.records if r.phase == "push"]
        assert cross_pushes and all(
            r.depends_on == (f"{r.params[0]}@rack{r.worker // 2}",)
            and r.route == f"cross:rack{r.worker // 2}"
            for r in cross_pushes
        )
        broadcasts = [
            r for r in st.records if r.phase == "pull" and r.depends_on
        ]
        downs = [
            r for r in st.records if r.phase == "pull" and not r.depends_on
        ]
        # One pull copy per rack down that rack's own uplink...
        assert downs and all(r.copies == 1 and r.frames == 1 for r in downs)
        assert {r.route for r in downs} == {"cross:rack0", "cross:rack1"}
        # ...then one broadcast per rack per pulled tensor, riding the
        # rack ring and depending on its rack's down copy.
        assert len(broadcasts) == len(downs)
        assert all(r.route.startswith("rack") for r in broadcasts)
        assert all(len(r.depends_on) == 1 for r in broadcasts)

    def test_async_updates_are_rack_granular(self):
        engine = make_engine(
            sync_mode="async",
            clock=MODELED,
            record_transmissions=True,
        )
        engine.train(6)
        events = engine.update_events
        assert len(events) == 6
        assert {e.worker for e in events} == {0, 1}  # rack ids, not workers
        for e in events:
            assert any(r.phase == "collective" for r in e.records)
            assert any(
                r.phase == "push" and r.depends_on for r in e.records
            )
            downs = [
                r for r in e.records if r.phase == "pull" and not r.depends_on
            ]
            bcasts = [
                r for r in e.records if r.phase == "pull" and r.depends_on
            ]
            assert len(downs) == len(bcasts)
            # Each rack's individual pull rides its own uplink.
            assert all(r.route == f"cross:rack{e.worker}" for r in downs)

    def test_ssp_staleness_observed_at_rack_granularity(self):
        from repro.distributed import StragglerSpec

        engine = make_engine(
            sync_mode="ssp",
            staleness=1,
            clock=MODELED,
            record_transmissions=True,
            straggler=StragglerSpec(
                jitter_sigma=0.0,
                slowdown_probability=0.5,
                slowdown_factor=8.0,
                seed=3,
            ),
        )
        engine.train(10)
        assert engine.max_staleness_observed() <= 2


class TestValidation:
    def test_worker_count_must_match_rack_shape(self):
        with pytest.raises(ValueError, match="not divisible into 2 racks of 2"):
            make_engine(num_workers=6)

    def test_rack_size_needs_a_ring(self):
        with pytest.raises(ValueError, match="rack ring needs >= 2"):
            make_engine(num_workers=2, racks=2, rack_size=1)

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({}, []),
            (dict(sync_mode="async"), ["--sync-mode", "async"]),
            (
                dict(sync_mode="ssp", staleness=1),
                ["--sync-mode", "ssp", "--staleness", "1"],
            ),
            (dict(fuse_small_tensors=True), ["--fuse"]),
            (
                dict(fault=FaultSpec(flaps=(UplinkFlap(rack=0, step=1),))),
                ["--flap", "0:1"],
            ),
        ],
        ids=["bsp", "async", "ssp", "fuse", "flap"],
    )
    def test_one_rack_is_refused_by_one_rule(self, overrides, flags, capsys):
        rule = "topology 'hier' needs racks >= 2; one rack is --topology ring"
        with pytest.raises(ValueError, match=re.escape(rule)):
            make_engine(num_workers=2, racks=1, rack_size=2, **overrides)
        argv = ["fig9", "--fast", "--topology", "hier", "--racks", "1"]
        with pytest.raises(SystemExit) as exit_info:
            parse_config(argv + ["--rack-size", "2", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert rule in err and "--racks 1" in err

    def test_backup_workers_rejected(self):
        with pytest.raises(ValueError, match="backup"):
            make_engine(backup_workers=1)

    def test_deferring_scheme_rejected_on_rack_ring(self):
        # At construction (the hop-level check stays as the backstop).
        with pytest.raises(ValueError, match="'2 local steps' defers transmissions"):
            make_engine("2 local steps")


class TestShardedUpperTier:
    def test_sharded_upper_trains_and_routes_per_shard(self):
        engine = make_engine(
            hier_upper="sharded", num_shards=2, record_transmissions=True
        )
        engine.train(3)
        assert all(np.isfinite(l.train_loss) for l in engine.step_logs)
        service = engine.service
        assert isinstance(service, HierarchicalExchangeService)
        routes = set(transmission_routes(service).values())
        assert routes == {"cross:shard0", "cross:shard1"}
        st = engine.transmissions[0]
        cross_routes = {
            r.route for r in st.records if r.route.startswith("cross")
        }
        assert cross_routes == {"cross:shard0", "cross:shard1"}

    def test_sharded_upper_matches_single_upper_exactly(self):
        """Per-tensor contexts never span shards, so sharding the upper
        tier must not change a transmitted byte or a loss value."""
        single = make_engine()
        sharded = make_engine(hier_upper="sharded", num_shards=3)
        single.train(4)
        sharded.train(4)
        assert [l.train_loss for l in single.step_logs] == [
            l.train_loss for l in sharded.step_logs
        ]
        assert [s.wire_bytes for s in single.traffic.steps] == [
            s.wire_bytes for s in sharded.traffic.steps
        ]
