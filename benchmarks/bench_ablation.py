"""Ablations of 3LC's design decisions (DESIGN.md §5).

The paper argues three choices (§3.1-§3.3); each ablation isolates one:

1. **Error feedback vs. stochastic quantization** — deterministic rounding
   with error accumulation beats unbiased stochastic rounding on accuracy
   (the reason 3LC rejects TernGrad's approach).
2. **Zero-run encoding on/off** — ZRE buys ~2× traffic on top of quartic
   encoding at no accuracy cost (it is lossless).
3. **Quartic vs. naive 2-bit encoding** — 20% wire savings for ternary
   payloads, measured on real training traffic.
"""

import numpy as np
import pytest

from repro.compression.threelc import ThreeLCCompressor
from repro.core.quantization import quantize_3value
from repro.core.quartic import quartic_encode
from repro.core.twobit import twobit_encode
from repro.data import SyntheticImageDataset
from repro.exchange import ExchangeEngine

from benchmarks.conftest import BENCH_CONFIG, emit


def _train(scheme_name_or_compressor, runner, fraction=1.0):
    if isinstance(scheme_name_or_compressor, str):
        return runner.run(scheme_name_or_compressor, fraction)
    # A custom compressor: run a one-off cluster at bench scale.
    config = BENCH_CONFIG
    steps = config.steps_for_fraction(fraction)
    cluster = ExchangeEngine(
        config.model_factory(),
        config.dataset(),
        scheme_name_or_compressor,
        config.schedule(steps),
        config.engine_config(),
    )
    cluster.train(steps)
    final = cluster.evaluate(test_size=config.eval_size)
    return final, cluster.traffic


def test_error_feedback_beats_stochastic(runner, benchmark):
    """§3.1/§5.3: deterministic quantization + error accumulation achieves
    better accuracy than stochastic quantization (Table 1: 93.32 vs 92.06)."""

    def run_both():
        ef = runner.run("3LC (s=1.00)", 1.0)
        stoch = runner.run("Stoch 3-value + QE", 1.0)
        return ef, stoch

    ef, stoch = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        "error feedback vs stochastic",
        f"3LC (error feedback): {100 * ef.final_accuracy:.2f}%\n"
        f"Stoch 3-value + QE:   {100 * stoch.final_accuracy:.2f}%",
    )
    assert ef.final_accuracy >= stoch.final_accuracy - 0.005


def test_zre_halves_traffic_without_accuracy_cost(traffic_runner, benchmark):
    """Table 2's first two rows: ZRE ~doubles the ratio; being lossless it
    cannot change training outcomes given the same quantization stream."""

    def run_both():
        with_zre = traffic_runner.run("3LC (s=1.00)", 1.0)
        without = traffic_runner.run("3LC (s=1.00, no ZRE)", 1.0)
        return with_zre, without

    with_zre, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        "ZRE ablation",
        f"with ZRE:    ratio {with_zre.compression_ratio:.1f}x, "
        f"acc {100 * with_zre.final_accuracy:.2f}%\n"
        f"without ZRE: ratio {without.compression_ratio:.1f}x, "
        f"acc {100 * without.final_accuracy:.2f}%",
    )
    assert with_zre.compression_ratio >= 1.5 * without.compression_ratio
    # ZRE's losslessness is asserted exactly at the codec level
    # (tests/core/test_zre.py: both pipelines decode to identical
    # tensors). Whole-run trajectories are NOT bit-comparable: with
    # multithreaded BLAS the simulator itself is non-deterministic at
    # ~1e-8 per step (verified by running one scheme twice), which
    # training dynamics amplify. The honest run-level claim is
    # statistical: accuracy matches within run-to-run noise.
    assert with_zre.final_accuracy == pytest.approx(
        without.final_accuracy, abs=0.01
    )


def test_error_feedback_off_hurts_aggressive_compression(benchmark):
    """Disabling 3LC's error accumulation at s=1.90 must not help: the
    deferred state changes are never delivered."""

    def run_both():
        with_ef = _train(ThreeLCCompressor(1.90), None)
        without = _train(ThreeLCCompressor(1.90, error_feedback=False), None)
        return with_ef, without

    (ef_final, _), (no_final, _) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    emit(
        "error feedback at s=1.90",
        f"with feedback:    {100 * ef_final.test_accuracy:.2f}%\n"
        f"without feedback: {100 * no_final.test_accuracy:.2f}%",
    )
    assert ef_final.test_accuracy >= no_final.test_accuracy - 0.02


def test_terngrad_clipping_ablation(runner, benchmark):
    """§5.1 implements TernGrad "without gradient clipping"; the restored
    option (clip at 2.5 sigma, TernGrad's setting) must not *hurt* — on
    heavy-tailed gradients it preserves quantization resolution — while
    the paper's no-clip variant remains the Table 1 baseline."""

    def run_both():
        plain = runner.run("Stoch 3-value + QE", 1.0)
        clipped = runner.run("Stoch 3-value + QE (clip 2.5)", 1.0)
        return plain, clipped

    plain, clipped = benchmark.pedantic(run_both, rounds=1, iterations=1)
    emit(
        "TernGrad clipping ablation",
        f"no clipping (paper's baseline): {100 * plain.final_accuracy:.2f}%\n"
        f"clip 2.5 sigma (TernGrad):      {100 * clipped.final_accuracy:.2f}%",
    )
    # Clipping keeps the scheme trainable and within noise of the no-clip
    # variant on this workload (gradients here are not outlier-dominated).
    assert clipped.final_accuracy >= plain.final_accuracy - 0.05


def test_quartic_vs_2bit_on_training_traffic(benchmark):
    """§3.2's 20% claim, measured on ternary streams from real gradients."""
    config = BENCH_CONFIG
    dataset = SyntheticImageDataset()
    model = config.model_factory()()
    from repro.nn.loss import SoftmaxCrossEntropy

    images, labels = dataset.train_shard(0, 64)
    loss_fn = SoftmaxCrossEntropy()
    logits = model.forward(images[:16], training=True)
    loss_fn.forward(logits, labels[:16])
    model.zero_grad()
    model.backward(loss_fn.backward())

    def measure():
        quartic_bytes = 0
        twobit_bytes = 0
        for p in model.parameters():
            if p.size < config.small_tensor_threshold:
                continue
            q = quantize_3value(p.grad, 1.0)
            quartic_bytes += quartic_encode(q.values).size
            twobit_bytes += twobit_encode(q.values).size
        return quartic_bytes, twobit_bytes

    quartic_bytes, twobit_bytes = benchmark.pedantic(measure, rounds=1, iterations=1)
    saving = 1 - quartic_bytes / twobit_bytes
    emit("quartic vs 2-bit on real gradients", f"saving {100 * saving:.1f}% (paper: 20%)")
    assert saving == pytest.approx(0.20, abs=0.01)
