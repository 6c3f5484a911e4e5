"""Incremental sweep replay: cache semantics and bit-identical reuse.

Covers the :class:`SweepReplayCache` contract directly (exact-match keys,
hit/miss counters, the recording and timeline levels) and through the
harness: sweep points differing only in simulation-only knobs share one
training recording, while anything recording-relevant — scheme, step
budget, fusion bucket capacity, topology — invalidates it. A recording
hit re-simulates, and its result is byte-identical to a cold run's (a
traced hit's telemetry holds the replay's spans alone).
"""

import json
import random
from dataclasses import replace

import pytest

from repro.exchange import MODELED
from repro.harness import FAST_CONFIG, ExperimentRunner
from repro.harness.results_io import run_result_to_dict
from repro.netsim import (
    NetworkSimulator,
    RecordedTraining,
    RecordingKey,
    SweepReplayCache,
)
from tests.netsim.test_vector_parity import random_run, random_timeline


def make_recording(tag: str) -> RecordedTraining:
    return RecordedTraining(
        plans=(tag,),
        evals=(),
        final=None,
        loss_curve=(),
        traffic=None,
        synchronous=True,
    )


class TestCacheSemantics:
    def test_recording_roundtrip_and_counters(self):
        cache = SweepReplayCache()
        key = RecordingKey("3LC (s=1.00)", 64, ("hier", 4, 2))
        assert cache.recording(key) is None
        assert cache.recording_misses == 1
        rec = make_recording("a")
        cache.store_recording(key, rec)
        assert cache.recording(key) is rec
        assert cache.recording_hits == 1

    @pytest.mark.parametrize(
        "other",
        [
            RecordingKey("32-bit float", 64, ("hier", 4, 2)),  # scheme
            RecordingKey("3LC (s=1.00)", 32, ("hier", 4, 2)),  # step budget
            RecordingKey("3LC (s=1.00)", 64, ("hier", 8, 2)),  # fingerprint
        ],
    )
    def test_recording_key_invalidates(self, other):
        cache = SweepReplayCache()
        key = RecordingKey("3LC (s=1.00)", 64, ("hier", 4, 2))
        cache.store_recording(key, make_recording("a"))
        assert cache.recording(other) is None

    def test_timeline_level(self):
        cache = SweepReplayCache()
        assert cache.timeline("cfg") is None
        cache.store_timeline("cfg", "profile")
        assert cache.timeline("cfg") == "profile"

    def test_len_and_stats_count_entries(self):
        cache = SweepReplayCache()
        cache.store_recording(RecordingKey("a", 1, ()), make_recording("a"))
        cache.store_timeline("t", 2)
        assert len(cache) == 1  # recordings are the expensive level
        stats = cache.stats()
        assert stats["recordings"] == 1
        assert stats["timelines"] == 1
        assert "simulations" not in stats  # no simulator output is stored


class TestBitIdenticalReplay:
    def test_resimulated_recording_matches_first_run(self):
        """A cache hit replays the identical plan objects; the simulator
        output must be bit-identical to the cold simulation."""
        rng = random.Random(3)
        links, steps = random_run(rng, 5)
        timeline = random_timeline(rng)
        plans = tuple(steps)  # what a RecordedTraining would carry
        cold = NetworkSimulator(timeline, links, vectorized=True).simulate_run(plans)
        # A different sweep point re-simulates the same recording and must
        # reproduce the schedule exactly (per-step caches included).
        again = NetworkSimulator(timeline, links, vectorized=True).simulate_run(plans)
        assert again == cold


class TestHarnessSweepReuse:
    def test_sim_only_knobs_share_one_recording(self):
        """Two hier sweep points differing only in cross-rack bandwidth
        share the training recording but get distinct simulations."""
        cache = SweepReplayCache()
        base = FAST_CONFIG.scaled(
            standard_steps=4,
            sim_overlap=True,
            topology="hier",
            num_workers=4,
            racks=2,
            rack_size=2,
        )
        first = ExperimentRunner(base, replay_cache=cache)
        first.run("3LC (s=1.00)")
        assert cache.recording_misses == 1
        trained = cache.stats()["recordings"]
        assert trained == 1

        narrow = ExperimentRunner(
            replace(base, cross_bw_fraction=0.25), replay_cache=cache
        )
        narrow.run("3LC (s=1.00)")
        # Recording reused (no second training run); every per-link
        # replay of both points ran.
        assert cache.recording_hits == 1
        assert cache.stats()["recordings"] == 1
        assert cache.stats()["simulation_misses"] == 6

    def test_bucket_capacity_invalidates_recording(self):
        """Fusion bucket capacity changes recorded frames: a swept
        ``bucket_elements`` must retrain, not reuse."""
        cache = SweepReplayCache()
        base = FAST_CONFIG.scaled(
            standard_steps=4, sim_overlap=True, fuse_small_tensors=True
        )
        ExperimentRunner(base, replay_cache=cache).run("3LC (s=1.00)")
        ExperimentRunner(
            replace(base, bucket_elements=1024), replay_cache=cache
        ).run("3LC (s=1.00)")
        assert cache.recording_hits == 0
        assert cache.stats()["recordings"] == 2


class TestRecordingHitIsAColdRun:
    @pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize(
        "cell",
        [{}, dict(sync_mode="async"), dict(sync_mode="ssp", staleness=0)],
        ids=["bsp", "async", "ssp0"],
    )
    def test_hit_after_a_sim_only_repoint_matches_a_cold_run(self, cell, telemetry):
        """A sim-only re-point served from a shared cache's recording and
        the same point run cold give the same archive, byte for byte.

        A traced hit trains nothing, so its telemetry holds the replay's
        ``sim:`` spans alone: exactly the cold run's ``sim:`` spans.
        """
        config = FAST_CONFIG.scaled(
            clock=MODELED, sim_overlap=True, standard_steps=4, telemetry=telemetry,
            **cell,
        )
        repoint = config.scaled(
            transmission_priority="smallest",
            time_model=replace(config.time_model, per_message_overhead=1e-3),
        )
        cache = SweepReplayCache()
        first = ExperimentRunner(config, cache).run("3LC (s=1.00)")
        hit = run_result_to_dict(ExperimentRunner(repoint, cache).run("3LC (s=1.00)"))
        assert cache.recording_hits == 1
        assert hit["total_seconds"] != first.total_seconds
        cold = run_result_to_dict(ExperimentRunner(repoint).run("3LC (s=1.00)"))
        if telemetry:
            spans = cold.pop("telemetry_summary")["spans"]
            traced = hit.pop("telemetry_summary")
            assert traced == {
                "counters": {}, "gauges": {}, "histograms": {},
                "spans": {k: v for k, v in spans.items() if k.startswith("sim:")},
            }
            assert traced["spans"]
        assert json.dumps(hit) == json.dumps(cold)
