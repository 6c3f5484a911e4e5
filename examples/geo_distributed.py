#!/usr/bin/env python
"""Geo-distributed training planner: server placement on a real WAN.

The paper's §1 motivates 3LC with geo-distributed deployments whose
training data is pinned to regulatory regions (EU data residency, China's
Cybersecurity Law) and whose state changes must cross slow, sometimes
metered WAN links. This example plans such a deployment end to end:

1. Train briefly on the in-process cluster to *measure* per-step push and
   pull bytes for a chosen compression scheme (no modelled traffic).
2. Feed those measurements into the WAN topology model: three regions,
   heterogeneous inter-region bandwidths.
3. Report, for every scheme: the best server placement, the step's
   communication time there, and the monthly WAN bill a metered link
   would charge — the paper's "cost-effective distributed ML" concern.

Run:  python examples/geo_distributed.py [--steps N]
"""

import argparse

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.network import Region, WanTopology
from repro.nn import CosineDecay, build_resnet, scale_lr_for_workers
from repro.utils.format import format_table, human_bytes

SCHEMES = (
    "32-bit float",
    "8-bit int",
    "5% sparsification",
    "3LC (s=1.00)",
    "3LC (s=1.75)",
)

#: A three-region deployment: most workers in the EU (data residency),
#: a US contingent, and a small mobile-edge group behind a thin pipe.
TOPOLOGY = WanTopology(
    [
        Region("eu-west", workers=6, intra_bps=1e9),
        Region("us-east", workers=3, intra_bps=1e9),
        Region("mobile-edge", workers=1, intra_bps=100e6),
    ],
    inter_bps={
        ("eu-west", "us-east"): 100e6,
        ("eu-west", "mobile-edge"): 10e6,
        ("us-east", "mobile-edge"): 10e6,
    },
    default_inter_bps=10e6,
)

#: What a metered WAN link bills per GB crossing a regional boundary
#: (typical inter-region egress pricing).
DOLLARS_PER_GB = 0.09


def measure_per_worker_bytes(scheme_name: str, steps: int) -> tuple[float, float]:
    """Short real training run; returns mean per-worker (push, pull) bytes."""
    workers = 4
    dataset = SyntheticImageDataset(DatasetSpec(image_size=16, seed=0))
    cluster = ExchangeEngine(
        lambda: build_resnet(8, base_width=8, seed=42),
        dataset,
        make_compressor(scheme_name, seed=0),
        CosineDecay(scale_lr_for_workers(0.02, workers), steps),
        EngineConfig(num_workers=workers, batch_size=16, shard_size=256, seed=0),
    )
    cluster.train(steps)
    steps_recorded = len(cluster.traffic.steps)
    push = sum(s.push_bytes for s in cluster.traffic.steps)
    pull = sum(s.pull_bytes_shared for s in cluster.traffic.steps)
    # Push bytes are summed over workers; the shared pull is compressed
    # once and every worker receives a copy.
    return push / steps_recorded / workers, pull / steps_recorded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument(
        "--steps-per-month",
        type=int,
        default=2_000_000,
        help="training steps a continuously-learning deployment runs monthly",
    )
    args = parser.parse_args()

    print(f"Topology: {', '.join(TOPOLOGY.regions)} "
          f"({TOPOLOGY.total_workers} workers total)\n")

    rows = []
    for scheme in SCHEMES:
        push, pull = measure_per_worker_bytes(scheme, args.steps)
        best = TOPOLOGY.best_server_placement(push, pull)
        monthly_wan = best.inter_region_bytes * args.steps_per_month
        rows.append(
            [
                scheme,
                best.server_region,
                f"{best.seconds * 1e3:.1f} ms",
                best.bottleneck_region,
                human_bytes(monthly_wan),
                f"${monthly_wan / 1e9 * DOLLARS_PER_GB:,.0f}",
            ]
        )
    print(
        format_table(
            [
                "Scheme",
                "Server",
                "Comm/step",
                "Bottleneck",
                "WAN bytes/month",
                "Egress bill",
            ],
            rows,
            title="Best placement and metered-WAN cost per scheme",
        )
    )
    print(
        "\nReading: compression does not change the *placement* (worker mass"
        "\ndecides that) but divides both the per-step barrier time and the"
        "\negress bill by its compression ratio — the paper's argument that"
        "\n3LC makes WAN and metered deployments practical."
    )


if __name__ == "__main__":
    main()
