"""Barrier-relaxation study: BSP vs. SSP vs. fully asynchronous (§2.1).

The paper's background motivates its synchronous setting with the claim
that "asynchronous state change transmission generally requires more
training steps than BSP to train a model to similar test accuracy". This
bench runs the three consistency models on an identical update budget —
with stragglers injected, since asynchrony exists to tolerate them — and
reports accuracy plus the observed staleness, with and without 3LC.

Shape claims: at an equal number of global updates, accuracy orders
BSP >= SSP >= fully-async (up to small-run noise), while asynchronous
wall-clock per update is lower under stragglers (no barrier waits); and
3LC composes with every consistency model (per-worker pull streams, §3's
"multiple copies of compressed model deltas").
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed import StragglerSpec
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet
from repro.utils.format import format_table

from benchmarks.conftest import emit

WORKERS = 4
UPDATES = 120  # global model updates, identical across consistency models
STRAGGLER = StragglerSpec(slowdown_probability=0.2, slowdown_factor=4.0, seed=11)


def _dataset():
    return SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))


def _model_factory():
    return lambda: build_resnet(8, base_width=4, seed=7)


def _run_async(scheme_name: str, staleness):
    cluster = ExchangeEngine(
        _model_factory(),
        _dataset(),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, UPDATES),
        EngineConfig(
            num_workers=WORKERS,
            batch_size=16,
            shard_size=256,
            sync_mode="async" if staleness is None else "ssp",
            staleness=staleness,
            straggler=STRAGGLER,
            seed=3,
        ),
    )
    cluster.train(UPDATES)
    accuracy = cluster.evaluate(test_size=500).test_accuracy
    return accuracy, cluster.max_staleness_observed()


def _run_bsp(scheme_name: str):
    # BSP applies one aggregated update per step: UPDATES steps for parity.
    cluster = ExchangeEngine(
        _model_factory(),
        _dataset(),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, UPDATES),
        EngineConfig(
            num_workers=WORKERS, batch_size=16, shard_size=256, seed=3
        ),
    )
    cluster.train(UPDATES)
    return cluster.evaluate(test_size=500).test_accuracy


@pytest.mark.parametrize("scheme", ["32-bit float", "3LC (s=1.00)"])
def test_consistency_models(benchmark, scheme):
    def run():
        rows = []
        bsp_acc = _run_bsp(scheme)
        rows.append(("BSP", bsp_acc, 0))
        ssp_acc, ssp_stale = _run_async(scheme, staleness=2)
        rows.append(("SSP (staleness 2)", ssp_acc, ssp_stale))
        async_acc, async_stale = _run_async(scheme, staleness=None)
        rows.append(("fully async", async_acc, async_stale))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"Consistency models under stragglers — {scheme} "
        f"({UPDATES} global updates)",
        format_table(
            ["Model", "Accuracy(%)", "Max staleness observed"],
            [[name, f"{100 * acc:.1f}", stale] for name, acc, stale in rows],
        ),
    )
    by_name = {name: (acc, stale) for name, acc, stale in rows}

    # SSP's bound is enforced (a worker may *start* at lead ``staleness``,
    # so the observed lead tops out at ``staleness + 1``); fully-async
    # drifts beyond it under stragglers.
    assert by_name["SSP (staleness 2)"][1] <= 3
    assert by_name["fully async"][1] >= 1

    # §2.1's claim at equal update budget: consistency helps. Small runs
    # are noisy, so the assertion is the paper's qualitative one — BSP is
    # not beaten by a clear margin by either relaxation.
    assert by_name["BSP"][0] >= by_name["fully async"][0] - 0.05
    assert by_name["BSP"][0] >= by_name["SSP (staleness 2)"][0] - 0.05
