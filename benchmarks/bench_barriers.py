"""Extension experiment: barrier relaxation under stragglers (paper §2.1).

The paper's baseline stack (SyncReplicasOptimizer) uses backup workers to
mitigate stragglers; §2.1 explains why. This bench reproduces the
mechanism's effect in the simulator: with heavy stragglers injected,
vanilla BSP's step latency balloons while a one-backup-worker barrier
stays near the straggler-free latency — and training still converges
(dropped pushes cost a little accuracy, the §2.1 trade).
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.distributed import StragglerSpec
from repro.exchange import EngineConfig, ExchangeEngine

from benchmarks.conftest import BENCH_CONFIG, emit


def _run(backup_workers: int, straggler: StragglerSpec | None, steps: int):
    config = BENCH_CONFIG
    engine_config = EngineConfig(
        num_workers=config.num_workers,
        batch_size=config.batch_size,
        shard_size=config.shard_size,
        seed=config.cluster_seed,
        backup_workers=backup_workers,
        straggler=straggler,
    )
    cluster = ExchangeEngine(
        config.model_factory(),
        config.dataset(),
        make_compressor("3LC (s=1.00)", seed=0),
        config.schedule(steps),
        engine_config,
    )
    cluster.train(steps)
    final = cluster.evaluate(test_size=config.eval_size)
    return cluster, final


def test_backup_workers_absorb_stragglers(benchmark):
    steps = max(BENCH_CONFIG.standard_steps // 4, 20)
    straggler = StragglerSpec(
        jitter_sigma=0.1, slowdown_probability=0.1, slowdown_factor=20.0, seed=3
    )

    def run_all():
        bsp_clean, acc_clean = _run(0, None, steps)
        bsp_slow, acc_slow = _run(0, straggler, steps)
        backup, acc_backup = _run(1, straggler, steps)
        return (bsp_clean, acc_clean), (bsp_slow, acc_slow), (backup, acc_backup)

    (clean, acc_clean), (slow, acc_slow), (backup, acc_backup) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    latency_clean = clean.traffic.mean_compute_seconds()
    latency_slow = slow.traffic.mean_compute_seconds()
    latency_backup = backup.traffic.mean_compute_seconds()
    emit(
        "barrier relaxation under stragglers",
        f"BSP, no stragglers:     {1000 * latency_clean:7.1f} ms/step, "
        f"acc {100 * acc_clean.test_accuracy:.1f}%\n"
        f"BSP, stragglers:        {1000 * latency_slow:7.1f} ms/step, "
        f"acc {100 * acc_slow.test_accuracy:.1f}%\n"
        f"1 backup, stragglers:   {1000 * latency_backup:7.1f} ms/step, "
        f"acc {100 * acc_backup.test_accuracy:.1f}%",
    )
    # Stragglers hurt BSP badly; the backup barrier recovers most of it.
    assert latency_slow > 1.5 * latency_clean
    assert latency_backup < latency_slow
    # Dropping ~10% of pushes must not destroy training.
    assert acc_backup.test_accuracy > acc_clean.test_accuracy - 0.15

    # The backup barrier actually dropped pushes.
    dropped = sum(s.dropped_pushes for s in backup.traffic.steps)
    assert dropped > 0
