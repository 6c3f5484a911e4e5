"""Shared benchmark fixtures.

One session-scoped :class:`ExperimentRunner` is shared by every benchmark
module so that table and figure benches reuse training runs exactly the way
the paper reuses its full-measurement results across Table 1 and
Figures 4–7.

The benchmark configuration (`BENCH_CONFIG`) is the reproduction's
"standard training" setting. Set the environment
variable ``REPRO_BENCH_STEPS`` to override the step budget (useful for a
quick smoke pass).
"""

import os

import numpy as np
import pytest

from repro.harness import ExperimentConfig, ExperimentRunner

_STEPS = int(os.environ.get("REPRO_BENCH_STEPS", "200"))

#: Time/accuracy experiment scale: Table 1 and Figures 4-8. A narrower
#: model keeps the 4-budget × 9-scheme sweep tractable.
BENCH_CONFIG = ExperimentConfig(
    depth=8,
    base_width=8,
    image_size=16,
    num_workers=4,
    batch_size=16,
    shard_size=512,
    standard_steps=_STEPS,
    base_lr=0.02,
    eval_size=1000,
    eval_points=8,
)

#: Traffic-measurement scale: Table 2 and Figure 9. A wider model makes
#: large conv tensors dominate, so compression ratios are not diluted by
#: per-tensor frame headers (the paper's ResNet-110 is header-negligible).
TRAFFIC_CONFIG = BENCH_CONFIG.scaled(base_width=16)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide cached runner for time/accuracy experiments."""
    return ExperimentRunner(BENCH_CONFIG)


@pytest.fixture(scope="session")
def traffic_runner() -> ExperimentRunner:
    """Session-wide cached runner for traffic experiments (wider model)."""
    return ExperimentRunner(TRAFFIC_CONFIG)


@pytest.fixture
def gradient_tensor() -> np.ndarray:
    """A realistic zero-centred gradient-like tensor (1M values)."""
    rng = np.random.default_rng(0)
    # Heavy-tailed mixture: mostly small values plus rare large ones, the
    # shape that makes ZRE productive on real training traffic.
    small = rng.normal(0, 0.01, size=1_000_000)
    spikes = rng.normal(0, 0.2, size=1_000_000) * (rng.random(1_000_000) < 0.02)
    return (small + spikes).astype(np.float32)


def emit(title: str, body: str) -> None:
    """Print a labelled result block to the benchmark log."""
    print(f"\n=== {title} ===\n{body}")
