"""Tests for barrier policies and straggler modelling (paper §2.1)."""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed import BackupWorkerBarrier, FullBarrier, StragglerSpec
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet


class TestStragglerSpec:
    def test_deterministic(self):
        spec = StragglerSpec(seed=1)
        assert spec.multiplier(2, 10) == spec.multiplier(2, 10)

    def test_varies_by_worker_and_step(self):
        spec = StragglerSpec(seed=1)
        values = {spec.multiplier(w, s) for w in range(4) for s in range(4)}
        assert len(values) > 8

    def test_slowdowns_occur_at_configured_rate(self):
        spec = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.25, slowdown_factor=10.0, seed=3
        )
        n = 2000
        slow = sum(spec.multiplier(0, s) > 5.0 for s in range(n))
        assert 0.2 < slow / n < 0.3

    def test_no_jitter_no_slowdown_is_identity(self):
        spec = StragglerSpec(jitter_sigma=0.0, slowdown_probability=0.0)
        assert spec.multiplier(0, 0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerSpec(jitter_sigma=-1)
        with pytest.raises(ValueError):
            StragglerSpec(slowdown_probability=2)
        with pytest.raises(ValueError):
            StragglerSpec(slowdown_factor=0.5)

    @pytest.mark.parametrize(
        "field,value,bounds",
        [
            ("jitter_sigma", float("nan"), ">= 0"),
            ("jitter_sigma", float("inf"), ">= 0"),
            ("jitter_sigma", -0.5, ">= 0"),
            ("jitter_sigma", "0.1", ">= 0"),
            ("slowdown_probability", float("nan"), "in [0, 1]"),
            ("slowdown_probability", 1.5, "in [0, 1]"),
            ("slowdown_probability", True, "in [0, 1]"),
            ("slowdown_factor", float("inf"), ">= 1"),
            ("slowdown_factor", float("nan"), ">= 1"),
            ("slowdown_factor", 0.5, ">= 1"),
        ],
        ids=repr,
    )
    def test_refusal_names_field_and_value(self, field, value, bounds):
        with pytest.raises(ValueError) as raised:
            StragglerSpec(**{field: value})
        assert str(raised.value) == (
            f"{field} must be a finite number {bounds}, got {value!r}"
        )


class TestBarrierPolicies:
    def test_full_barrier_accepts_everyone(self):
        decision = FullBarrier().decide({0: 1.0, 1: 3.0, 2: 2.0})
        assert set(decision.accepted) == {0, 1, 2}
        assert decision.dropped == ()
        assert decision.compute_seconds == 3.0

    def test_full_barrier_orders_by_arrival(self):
        decision = FullBarrier().decide({0: 3.0, 1: 1.0, 2: 2.0})
        assert decision.accepted == (1, 2, 0)

    def test_backup_barrier_drops_slowest(self):
        barrier = BackupWorkerBarrier(required=2)
        decision = barrier.decide({0: 1.0, 1: 9.0, 2: 2.0})
        assert decision.accepted == (0, 2)
        assert decision.dropped == (1,)
        # The straggler does not set the step latency.
        assert decision.compute_seconds == 2.0

    def test_backup_barrier_validation(self):
        with pytest.raises(ValueError):
            BackupWorkerBarrier(0)
        with pytest.raises(ValueError):
            BackupWorkerBarrier(3).decide({0: 1.0})

    def test_full_barrier_empty_rejected(self):
        with pytest.raises(ValueError):
            FullBarrier().decide({})


def make_cluster(**cfg_overrides):
    defaults = dict(num_workers=3, batch_size=8, shard_size=32, cluster_seed=0)
    defaults.update(cfg_overrides)
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, 10),
        EngineConfig(**defaults),
    )


class TestClusterIntegration:
    def test_backup_workers_drop_pushes(self):
        straggler = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.5, slowdown_factor=50.0, seed=2
        )
        cluster = make_cluster(backup_workers=1, straggler=straggler)
        cluster.train(6)
        dropped = [s.dropped_pushes for s in cluster.traffic.steps]
        assert all(d == 1 for d in dropped)  # always drops exactly one

    def test_backup_workers_cut_straggler_latency(self):
        straggler = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.25, slowdown_factor=100.0, seed=7
        )
        bsp = make_cluster(straggler=straggler)
        backup = make_cluster(backup_workers=1, straggler=straggler)
        bsp.train(12)
        backup.train(12)
        bsp_latency = bsp.traffic.mean_compute_seconds()
        backup_latency = backup.traffic.mean_compute_seconds()
        # With 3 workers and a 25% chance of a 100x slowdown, BSP latency is
        # dominated by single stragglers; one backup worker removes them
        # (only the rarer two-straggler steps remain slow).
        assert backup_latency < bsp_latency / 2

    def test_backup_cluster_still_learns(self):
        cluster = make_cluster(backup_workers=1)
        cluster.train(10)
        losses = [log.train_loss for log in cluster.step_logs]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_bsp_accepts_all_without_straggler_spec(self):
        cluster = make_cluster()
        cluster.train(2)
        assert all(s.dropped_pushes == 0 for s in cluster.traffic.steps)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="backup_workers"):
            EngineConfig(num_workers=2, backup_workers=2)
