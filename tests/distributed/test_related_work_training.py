"""End-to-end training integration for the §6 related-work schemes.

The contract tests prove each codec round-trips; these prove each scheme
actually *trains* on the full cluster path — push compression, server
aggregation, shared (or per-worker) pull compression, local model updates
— reducing loss and saving traffic, with its cross-step state (momentum
correction, warmup, threshold decay, controller state) exercised over
many steps.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet

NEW_SCHEMES = (
    "QSGD (2-bit)",
    "QSGD (4-bit)",
    "DGC (0.10%)",
    "Gaia",
    "sufficient factors (rank 1)",
    "sufficient factors (rank 4)",
    "3LC (adaptive, 0.5 bits)",
    "2 local steps + 3LC (s=1.00)",
    "4 local steps",
    "8 local steps",
)

STEPS = 25


def train(scheme_name: str):
    cluster = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, STEPS),
        EngineConfig(num_workers=2, batch_size=8, shard_size=64, seed=0),
    )
    losses = []
    for _ in range(STEPS):
        losses.append(cluster.train_step().train_loss)
    return cluster, losses


@pytest.mark.parametrize("scheme_name", NEW_SCHEMES, ids=lambda s: s.replace(" ", "_"))
def test_scheme_trains_end_to_end(scheme_name):
    cluster, losses = train(scheme_name)
    # Loss goes down: late-window mean clearly below the first steps'.
    early = float(np.mean(losses[:5]))
    late = float(np.mean(losses[-5:]))
    assert late < early, (scheme_name, early, late)
    # Every lossy/deferring scheme transmits fewer bytes than raw float32.
    assert cluster.traffic.compression_ratio() > 1.5, scheme_name
    # The model is still evaluable and finite.
    final = cluster.evaluate(test_size=200)
    assert np.isfinite(final.test_loss)
    assert 0.0 <= final.test_accuracy <= 1.0


def test_adaptive_controller_state_survives_cluster_run():
    cluster, _ = train("3LC (adaptive, 0.5 bits)")
    # Every non-bypassed push context carries controller history.
    worker = cluster.workers[0]
    adjusted = [
        ctx
        for name, ctx in worker.stream.contexts.items()
        if name not in worker.stream.bypassed and hasattr(ctx, "history")
    ]
    assert adjusted, "no adaptive contexts found on the worker"
    assert all(len(ctx.history) == STEPS for ctx in adjusted)


def test_dgc_pull_contexts_degrade_to_plain_topk():
    cluster, _ = train("DGC (0.10%)")
    pulls = [
        ctx
        for name, ctx in cluster.service.stream.contexts.items()
        if name not in cluster.service.bypassed
    ]
    assert pulls
    assert all(ctx.momentum == 0.0 for ctx in pulls)
    pushes = [
        ctx
        for name, ctx in cluster.workers[0].stream.contexts.items()
        if name not in cluster.workers[0].stream.bypassed
    ]
    assert all(ctx.momentum == pytest.approx(0.9) for ctx in pushes)
