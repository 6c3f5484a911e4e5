#!/usr/bin/env python
"""Distributed training with 3LC vs. the uncompressed baseline.

Reproduces the paper's core experiment at demo scale: a ResNet trained by a
simulated parameter-server cluster, once with 32-bit float state change
transmission and once with 3LC, comparing accuracy, traffic, and modelled
wall-clock time on a 10 Mbps WAN link.

Run:  python examples/distributed_training.py [--steps N] [--workers K]
"""

import argparse

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.network import StepTimeModel, link
from repro.nn import CosineDecay, build_resnet, scale_lr_for_workers
from repro.utils.format import human_bytes


def train_once(scheme_name: str, steps: int, workers: int) -> None:
    dataset = SyntheticImageDataset(DatasetSpec(image_size=16, seed=0))
    config = EngineConfig(
        num_workers=workers, batch_size=16, shard_size=256, seed=0
    )
    schedule = CosineDecay(scale_lr_for_workers(0.02, workers), steps)
    cluster = ExchangeEngine(
        lambda: build_resnet(8, base_width=8, seed=42),
        dataset,
        make_compressor(scheme_name, seed=0),
        schedule,
        config,
    )
    print(f"\n--- {scheme_name} ---")
    for eval_result in cluster.train(steps, eval_every=max(1, steps // 4)):
        print(
            f"  step {eval_result.step:4d}: "
            f"test accuracy {100 * eval_result.test_accuracy:5.1f}%, "
            f"test loss {eval_result.test_loss:.3f}"
        )
    meter = cluster.traffic
    time_model = StepTimeModel(compute_scale=0.05, codec_scale=0.5)
    wan_minutes = time_model.total_seconds(meter, link("10Mbps")) / 60
    print(
        f"  traffic: {human_bytes(meter.total_wire_bytes)} on the wire "
        f"({meter.compression_ratio():.1f}x reduction, "
        f"{meter.average_bits_per_value():.3f} bits/value)"
    )
    print(f"  modelled training time @ 10 Mbps: {wan_minutes:.1f} minutes")
    print(f"  replica drift from global model: {cluster.model_divergence():.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()
    for scheme in ("32-bit float", "3LC (s=1.00)", "3LC (s=1.75)"):
        train_once(scheme, args.steps, args.workers)


if __name__ == "__main__":
    main()
