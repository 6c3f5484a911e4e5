"""Tests for asynchronous / stale-synchronous training (paper §2.1)."""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed import StragglerSpec
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import ConstantLR, CosineDecay, build_resnet


def make_async(staleness=None, scheme="32-bit float", updates_for_schedule=24, **cfg):
    defaults = dict(num_workers=3, batch_size=8, shard_size=32, seed=0)
    defaults.update(cfg)
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme, seed=0),
        CosineDecay(0.05, updates_for_schedule),
        EngineConfig(
            sync_mode="async" if staleness is None else "ssp",
            staleness=staleness,
            **defaults,
        ),
    )


class TestAsyncMechanics:
    def test_updates_apply_one_push_at_a_time(self):
        cluster = make_async()
        before = cluster.service.state_dict()
        cluster.train(1)
        after = cluster.service.state_dict()
        assert cluster.update_count == 1
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_fully_async_staleness_unbounded_under_stragglers(self):
        straggler = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.5, slowdown_factor=50.0, seed=1
        )
        cluster = make_async(staleness=None, straggler=straggler)
        # The virtual clock advances by *measured* compute seconds, so the
        # schedule is load-sensitive; run long enough that workers hit by
        # repeated 50x slowdowns fall behind regardless of timing noise.
        cluster.train(60)
        assert cluster.max_staleness_observed() > 2

    def test_ssp_bounds_staleness(self):
        straggler = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.5, slowdown_factor=50.0, seed=1
        )
        cluster = make_async(staleness=1, straggler=straggler)
        cluster.train(18)
        assert cluster.max_staleness_observed() <= 2  # staleness + 1 in flight

    def test_staleness_zero_is_lockstep(self):
        cluster = make_async(staleness=0)
        cluster.train(9)
        assert cluster.max_staleness_observed() <= 1

    def test_traffic_recorded_per_update(self):
        cluster = make_async(scheme="3LC (s=1.00)")
        cluster.train(4)
        assert len(cluster.traffic.steps) == 4
        assert all(s.push_bytes > 0 for s in cluster.traffic.steps)
        assert all(s.pull_bytes_shared > 0 for s in cluster.traffic.steps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(sync_mode="ssp", staleness=-1)
        with pytest.raises(ValueError):
            EngineConfig(sync_mode="async", num_workers=0)


class TestAsyncLearning:
    def test_async_training_learns(self):
        cluster = make_async(scheme="3LC (s=1.00)", updates_for_schedule=60)
        cluster.train(60)
        # Well above 10% chance.
        assert cluster.evaluate(test_size=200).test_accuracy > 0.3

    def test_async_needs_more_updates_than_bsp(self):
        """Paper §2.1: asynchronous transmission 'generally requires more
        training steps than BSP to train a model to similar test accuracy'.
        Compare at an equal number of *gradient applications*."""
        workers, budget = 3, 36  # 36 async updates == 12 BSP steps x 3 workers
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))

        bsp = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=7),
            dataset,
            make_compressor("32-bit float", seed=0),
            CosineDecay(0.05, budget // workers),
            EngineConfig(num_workers=workers, batch_size=8, shard_size=32, seed=0),
        )
        bsp.train(budget // workers)
        bsp_acc = bsp.evaluate(test_size=300).test_accuracy

        # Async with heavy stragglers -> very stale updates.
        straggler = StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.6, slowdown_factor=30.0, seed=4
        )
        async_cluster = make_async(
            staleness=None, updates_for_schedule=budget, straggler=straggler
        )
        async_cluster.train(budget)
        async_acc = async_cluster.evaluate(test_size=300).test_accuracy

        # Asynchrony should not *beat* BSP at equal update budget; allow a
        # small noise margin rather than demanding strict inferiority.
        assert async_acc <= bsp_acc + 0.05
