#!/usr/bin/env python
"""WAN deployment planner: which scheme for which link?

The paper's motivation (§1) is geo-distributed and metered-network
training. This example sweeps every compression scheme over a range of
link bandwidths — including links slower than the paper's 10 Mbps, as in
federated/mobile settings — and reports the modelled per-step time and the
bytes a metered connection would bill per 1000 steps, using traffic
measured from a short real training run.

Run:  python examples/wan_deployment_planner.py [--steps N]
"""

import argparse

from repro.compression import TABLE1_SCHEMES, make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.network import LinkSpec, StepTimeModel
from repro.nn import CosineDecay, build_resnet, scale_lr_for_workers
from repro.utils.format import format_table, human_bytes

LINKS = [
    LinkSpec("1Mbps (metered mobile)", 1e6),
    LinkSpec("10Mbps (WAN)", 10e6),
    LinkSpec("100Mbps", 100e6),
    LinkSpec("1Gbps (LAN)", 1e9),
]


def measure_scheme(scheme_name: str, steps: int):
    dataset = SyntheticImageDataset(DatasetSpec(image_size=16, seed=0))
    config = EngineConfig(num_workers=4, batch_size=16, shard_size=256, seed=0)
    cluster = ExchangeEngine(
        lambda: build_resnet(8, base_width=8, seed=42),
        dataset,
        make_compressor(scheme_name, seed=0),
        CosineDecay(scale_lr_for_workers(0.02, 4), steps),
        config,
    )
    cluster.train(steps)
    return cluster.traffic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=30)
    args = parser.parse_args()

    time_model = StepTimeModel(compute_scale=0.05, codec_scale=0.5)
    rows = []
    for scheme_name in TABLE1_SCHEMES:
        meter = measure_scheme(scheme_name, args.steps)
        per_1k_steps = meter.mean_wire_bytes() * 1000
        row = [scheme_name, human_bytes(per_1k_steps)]
        for spec in LINKS:
            row.append(f"{time_model.mean_step_seconds(meter, spec):.3f}")
        rows.append(row)

    headers = ["Design", "bytes/1k steps"] + [f"s/step @{l.name.split()[0]}" for l in LINKS]
    print(format_table(headers, rows, title="WAN deployment planner (measured traffic, modelled time)"))
    print(
        "\nReading guide: on metered links, pick the design with the smallest"
        "\nbytes/1k-steps that holds accuracy (see Table 1 / bench_table1);"
        "\non fast LANs, codec overhead dominates and aggressive compression"
        "\nstops paying off — the paper's §5.3 finding."
    )


if __name__ == "__main__":
    main()
