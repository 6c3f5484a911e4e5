#!/usr/bin/env python
"""Fused wire plans vs per-tensor exchange on a many-small-tensor model.

The fused-bucket wire plan exists for exactly one regime: models whose
parameter list is dominated by *count* rather than *bytes* — dozens of
batch-norm scales/shifts and biases, each paying a full frame header and a
full Python codec round-trip per step. This benchmark trains the same
deep-narrow MLP (every tensor below the bypass threshold is tiny) through
the unified engine with fusion off and on, and reports per-step codec wall
time, total wire bytes, and frame counts — now across the whole wire-plan
matrix: the single server, a 4-shard service (partition-aware buckets),
the hierarchical cross-rack tier, and async per-worker fused pull streams.

Acceptance (asserted, not just printed): fusion must cut per-step codec
time on the single server, must never increase total wire bytes, must cut
wire frames by >= 5x on the 4-shard sweep, and the lossy bucket mode must
move strictly fewer bytes than the exact mode (its accuracy cost is
reported alongside).

Run:  python benchmarks/bench_fusion.py [--smoke] [--topology T]
      [--sync-mode M] [--fuse-lossy] [--steps N]
(also collectable by pytest: ``pytest benchmarks/bench_fusion.py``)
"""

import argparse
import sys

import numpy as np

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import MEASURED, MODELED, EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_mlp

try:
    from benchmarks.conftest import emit
except ImportError:  # standalone `python benchmarks/bench_fusion.py` runs
    def emit(title: str, body: str) -> None:
        print(f"\n=== {title} ===\n{body}")

IMAGE_SIZE = 8
STEPS = 12
#: Deep-narrow MLP: 12 hidden layers of width 14 -> 26 parameter tensors,
#: every one of them below the 256-element bypass threshold except the
#: input projection.
HIDDEN = (14,) * 12


def run(
    fuse: bool,
    *,
    topology: str = "single",
    sync_mode: str = "bsp",
    num_shards: int = 4,
    lossy: bool = False,
    steps: int = STEPS,
) -> ExchangeEngine:
    engine = ExchangeEngine(
        lambda: build_mlp(3 * IMAGE_SIZE * IMAGE_SIZE, HIDDEN, num_classes=10, seed=3),
        SyntheticImageDataset(DatasetSpec(image_size=IMAGE_SIZE, seed=0)),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(
            num_workers=4,
            batch_size=16,
            shard_size=64,
            seed=0,
            topology=topology,
            sync_mode=sync_mode,
            num_shards=num_shards,
            racks=2,
            rack_size=2,
            fuse_small_tensors=fuse,
            fuse_lossy=lossy,
            # Event-driven scheduling orders by compute time; model it so
            # fused and unfused async runs walk the identical schedule. BSP
            # runs stay measured: their codec seconds are the result.
            clock=MEASURED if sync_mode == "bsp" else MODELED,
        ),
    )
    engine.train(steps)
    return engine


def comparison_rows(unfused: ExchangeEngine, fused: ExchangeEngine) -> list[str]:
    codec_unfused = unfused.traffic.mean_codec_seconds()
    codec_fused = fused.traffic.mean_codec_seconds()
    bytes_unfused = unfused.traffic.total_wire_bytes
    bytes_fused = fused.traffic.total_wire_bytes
    frames_unfused = unfused.traffic.total_messages
    frames_fused = fused.traffic.total_messages
    plan = fused.fusion_plan
    clock = fused.engine_config.clock.name
    return [
        f"{'path':<12} {'codec s/step':>14} {'wire bytes':>12} {'frames':>8}"
        f"  (codec seconds: {clock})",
        f"{'per-tensor':<12} {codec_unfused:>14.6f} {bytes_unfused:>12} {frames_unfused:>8}",
        f"{'fused':<12} {codec_fused:>14.6f} {bytes_fused:>12} {frames_fused:>8}",
        "",
        f"codec speedup: {codec_unfused / codec_fused:.2f}x, "
        f"byte saving: {100 * (1 - bytes_fused / bytes_unfused):.1f}%, "
        f"frame reduction: {frames_unfused / frames_fused:.1f}x "
        f"({len(plan.fused_names)} tensors in "
        f"{len(plan.buckets)} bucket(s))",
    ]


def test_fused_bucket_hot_path():
    unfused = run(False)
    fused = run(True)

    emit(
        "Fused-bucket vs per-tensor exchange (many-small-tensor MLP)",
        "\n".join(comparison_rows(unfused, fused)),
    )

    # Numerics must be untouched (the fused path is the bypass codec). With
    # more than two workers the barrier orders pushes by *measured* arrival
    # time, so float aggregation order — and hence the last few mantissa
    # bits — varies between any two runs; compare to float tolerance here
    # (tests/exchange/test_fusion.py pins bit-exactness at two workers).
    np.testing.assert_allclose(
        [l.train_loss for l in unfused.step_logs],
        [l.train_loss for l in fused.step_logs],
        rtol=1e-5,
    )
    # The point of the hot path: fewer codec calls -> less per-step codec
    # wall time, fewer frames -> fewer wire bytes at equal payload. The
    # margin is ~1.2x of a few hundred microseconds on a shared box, so
    # each side is its fastest of three runs (disturbance only adds time).
    codec_unfused = min(
        e.traffic.mean_codec_seconds() for e in (unfused, run(False), run(False))
    )
    codec_fused = min(
        e.traffic.mean_codec_seconds() for e in (fused, run(True), run(True))
    )
    assert codec_fused < codec_unfused, (
        f"fused codec path slower: {codec_fused:.6f}s vs {codec_unfused:.6f}s"
    )
    assert fused.traffic.total_wire_bytes <= unfused.traffic.total_wire_bytes
    assert fused.traffic.total_messages < unfused.traffic.total_messages


def test_fused_wire_plan_on_four_shards():
    """The PR's acceptance number: partition-aware buckets cut the 4-shard
    sweep's wire frames by >= 5x at unchanged numerics."""
    unfused = run(False, topology="sharded", num_shards=4)
    fused = run(True, topology="sharded", num_shards=4)

    emit(
        "Fused wire plan on a 4-shard service",
        "\n".join(comparison_rows(unfused, fused)),
    )
    np.testing.assert_allclose(
        [l.train_loss for l in unfused.step_logs],
        [l.train_loss for l in fused.step_logs],
        rtol=1e-5,
    )
    # Buckets are shard-pure by construction.
    for bucket in fused.fusion_plan.buckets:
        owners = {fused.service.shard_of(name) for name in bucket.names}
        assert owners == {bucket.group}
    reduction = unfused.traffic.total_messages / fused.traffic.total_messages
    assert reduction >= 5.0, (
        f"expected >= 5x fewer wire frames on 4 shards, got {reduction:.2f}x"
    )
    assert fused.traffic.total_wire_bytes <= unfused.traffic.total_wire_bytes


def test_fused_wire_plan_on_hier_and_async():
    """Smoke the remaining wire-plan matrix: the hierarchical cross tier
    and the async per-worker fused pull streams."""
    for kwargs in (dict(topology="hier"), dict(sync_mode="async")):
        unfused = run(False, steps=8, **kwargs)
        fused = run(True, steps=8, **kwargs)
        np.testing.assert_allclose(
            [l.train_loss for l in unfused.step_logs],
            [l.train_loss for l in fused.step_logs],
            rtol=1e-5,
        )
        assert fused.traffic.total_messages < unfused.traffic.total_messages
        assert (
            fused.traffic.total_wire_bytes <= unfused.traffic.total_wire_bytes
        )


def test_lossy_fused_accuracy_traffic_trade():
    """Lossy whole-bucket 3LC (one shared scale per bucket) vs the exact
    bypass mode: strictly fewer bytes, measured accuracy cost."""
    exact = run(True)
    lossy = run(True, lossy=True)

    exact_eval = exact.evaluate(test_size=400)
    lossy_eval = lossy.evaluate(test_size=400)
    exact_bytes = exact.traffic.total_wire_bytes
    lossy_bytes = lossy.traffic.total_wire_bytes
    rows = [
        f"{'mode':<8} {'wire bytes':>12} {'accuracy':>10} {'final loss':>12}",
        f"{'exact':<8} {exact_bytes:>12} {100 * exact_eval.test_accuracy:>9.2f}% "
        f"{exact_eval.test_loss:>12.4f}",
        f"{'lossy':<8} {lossy_bytes:>12} {100 * lossy_eval.test_accuracy:>9.2f}% "
        f"{lossy_eval.test_loss:>12.4f}",
        "",
        f"traffic saving: {100 * (1 - lossy_bytes / exact_bytes):.1f}%, "
        f"accuracy delta: "
        f"{100 * (lossy_eval.test_accuracy - exact_eval.test_accuracy):+.2f}pp",
    ]
    emit("Lossy vs exact fused buckets (shared scale per bucket)", "\n".join(rows))

    assert lossy_bytes < exact_bytes
    # Same plan, same framing: lossiness changes payloads, not frames.
    assert lossy.traffic.total_messages == exact.traffic.total_messages
    assert all(np.isfinite(l.train_loss) for l in lossy.step_logs)
    # Error feedback keeps the lossy run training, not diverging.
    assert lossy.model_divergence() < 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI"
    )
    parser.add_argument(
        "--topology", default="single", choices=["single", "sharded", "hier"]
    )
    parser.add_argument("--sync-mode", default="bsp", choices=["bsp", "async"])
    parser.add_argument(
        "--fuse-lossy", action="store_true",
        help="also run (and report) the lossy bucket mode",
    )
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args(argv)

    steps = 6 if args.smoke else STEPS
    if args.steps is not None:
        steps = args.steps

    kwargs = dict(topology=args.topology, sync_mode=args.sync_mode, steps=steps)
    unfused = run(False, **kwargs)
    fused = run(True, **kwargs)
    np.testing.assert_allclose(
        [l.train_loss for l in unfused.step_logs],
        [l.train_loss for l in fused.step_logs],
        rtol=1e-5,
    )
    assert fused.traffic.total_messages < unfused.traffic.total_messages
    assert fused.traffic.total_wire_bytes <= unfused.traffic.total_wire_bytes
    title = (
        f"Fused wire plan ({args.topology}, {args.sync_mode}, {steps} steps)"
    )
    print(f"=== {title} ===")
    print("\n".join(comparison_rows(unfused, fused)))
    if args.fuse_lossy:
        lossy = run(True, lossy=True, **kwargs)
        saved = 1 - lossy.traffic.total_wire_bytes / fused.traffic.total_wire_bytes
        assert lossy.traffic.total_wire_bytes < fused.traffic.total_wire_bytes
        print(
            f"lossy buckets: {lossy.traffic.total_wire_bytes} wire bytes "
            f"({100 * saved:.1f}% below exact fused)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
