"""Hierarchical exchange: parity anchors and structural guarantees.

The load-bearing assertions:

* ``golden_hier_trace.json`` pins the fixed-seed hierarchical BSP schedule
  (per-step losses, per-tier byte split) against regressions;
* a one-rack hierarchy is refused by one rule, whatever it is combined
  with: it has no cross-rack tier, so it would be the plain ring;
* intra- and cross-rack bytes partition the wire total exactly, in BSP
  and async modes;
* the recorded transmission plans carry the tier coupling
  (``depends_on``) the simulator schedules;
* the upper tier is one parameter server over the racks, reached by each
  rack on its own ``cross:rack<k>`` uplink.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed import ParameterServer
from repro.distributed.faults import FaultSpec, UplinkFlap
from repro.exchange import (
    MODELED,
    EngineConfig,
    ExchangeEngine,
    HierarchicalExchangeService,
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

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                dict(catch_up={-1: "backlog"}),
                "catch_up rack -1 out of range: catch_up must be keyed by "
                "racks in [0, 2)",
            ),
            (
                dict(catch_up={5: "backlog"}),
                "catch_up rack 5 out of range: catch_up must be keyed by "
                "racks in [0, 2)",
            ),
            (
                dict(catch_up={True: "backlog"}),
                "catch_up rack True out of range: catch_up must be keyed by "
                "racks in [0, 2)",
            ),
            (
                dict(down_racks=frozenset({True})),
                "down rack True out of range: down_racks must hold racks in [0, 2)",
            ),
            (
                dict(down_racks=frozenset({2})),
                "down rack 2 out of range: down_racks must hold racks in [0, 2)",
            ),
            (
                dict(down_racks=frozenset({1}), catch_up={1: "backlog"}),
                "rack 1 cannot catch up while its uplink is down",
            ),
            (dict(rack=True), "rack must be in [0, 2), got True"),
            (dict(rack=2), "rack must be in [0, 2), got 2"),
            (dict(rack=-1), "rack must be in [0, 2), got -1"),
        ],
        ids=[
            "catch-up-negative", "catch-up-past-end", "catch-up-bool",
            "down-bool", "down-past-end", "catch-up-while-down",
            "rack-bool", "rack-past-end", "rack-negative",
        ],
    )
    def test_rack_arguments_are_checked_before_any_work(self, call, message):
        """A rack is an ``int`` (not a ``bool``) in ``[0, racks)``: anything
        else is refused by name before a ring or the core steps."""
        engine = make_engine()
        service = engine.service
        batches = {w.worker_id: w.train_step_raw() for w in engine.workers}
        with pytest.raises(ValueError, match=re.escape(message)):
            if "rack" in call:
                service.rack_exchange(call["rack"], [batches[0], batches[1]])
            else:
                service.exchange(batches, None, **call)
        assert service.global_step == 0
        service.exchange(batches, None)  # the rings still run in lockstep
        assert service.global_step == 1

    def test_backup_workers_rejected(self):
        with pytest.raises(ValueError, match="backup"):
            make_engine(backup_workers=1)

    def test_deferring_scheme_rejected_on_rack_ring(self):
        # At construction (the hop-level check stays as the backstop).
        with pytest.raises(ValueError, match="'2 local steps' defers transmissions"):
            make_engine("2 local steps")


class TestUpperTier:
    @pytest.mark.parametrize(
        "racks, rack_size, sync",
        [
            (2, 2, dict()),
            (3, 2, dict()),
            (2, 3, dict(sync_mode="ssp", staleness=1)),
            (4, 2, dict(sync_mode="async")),
        ],
        ids=["2x2-bsp", "3x2-bsp", "2x3-ssp1", "4x2-async"],
    )
    def test_one_server_over_per_rack_uplinks(self, racks, rack_size, sync):
        engine = make_engine(
            num_workers=racks * rack_size, racks=racks, rack_size=rack_size,
            record_transmissions=True, **sync,
        )
        engine.train(racks)
        assert all(np.isfinite(log.train_loss) for log in engine.step_logs)
        assert isinstance(engine.service.upper, ParameterServer)
        quanta = engine.transmissions or engine.update_events
        routes = {record.route for quantum in quanta for record in quantum.records}
        assert routes == {
            route for k in range(racks) for route in (f"rack{k}", f"cross:rack{k}")
        }
