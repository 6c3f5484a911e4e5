#!/usr/bin/env python
"""Two-tier step time across link speeds: where the core bottleneck bites.

The hierarchical topology (``--topology hier``) composes a rack-local
ring all-reduce with a cross-rack parameter service: gradients ride fast
rack links, one compressed aggregate per rack crosses the scarce core,
and the shared model deltas fan back down through both tiers. This
example makes the two-tier cost surface inspectable: it trains a small
hierarchical cluster once, records every step's tier-coupled
transmission plan, and replays the run through the discrete-event
simulator at the paper's three fabric bandwidths — serialized and with
per-layer overlap — reporting per-tier link utilization alongside.

The printed table shows the regime the paper targets: the rack tier
stays mostly idle while the core (at a tenth of the fabric rate)
saturates, which is exactly where 3LC's compression of the cross-rack
aggregate pays.

Run:  python examples/hier_sweep.py [--steps N] [--cross-bw FRACTION]
"""

import argparse

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.netsim import NetworkSimulator, link_model_for
from repro.network.bandwidth import LINKS
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.utils.format import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--rack-size", type=int, default=2)
    parser.add_argument(
        "--cross-bw", type=float, default=0.1,
        help="cross-rack uplink rate as a fraction of the fabric rate",
    )
    args = parser.parse_args()

    num_workers = args.racks * args.rack_size
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    model_factory = lambda: build_resnet(8, base_width=8, seed=1)
    engine = ExchangeEngine(
        model_factory,
        dataset,
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, args.steps),
        EngineConfig(
            num_workers=num_workers,
            batch_size=8,
            shard_size=64,
            seed=0,
            topology="hier",
            racks=args.racks,
            rack_size=args.rack_size,
            record_transmissions=True,
        ),
    )
    engine.train(args.steps)
    meter = engine.traffic
    print(
        f"trained {args.racks} racks x {args.rack_size} workers over "
        f"{args.steps} steps: "
        f"{meter.total_intra_rack_bytes / 1e6:.2f} MB intra-rack, "
        f"{meter.total_cross_rack_bytes / 1e6:.2f} MB cross-rack "
        f"(core at {args.cross_bw:.0%} of the fabric rate)\n"
    )

    images, labels = dataset.train_shard(0, 8)
    timeline = profile_backward(model_factory(), images, labels)
    time_model = StepTimeModel(compute_scale=0.05, codec_scale=0.5)
    rows = []
    for link_name, spec in LINKS.items():
        lm = link_model_for(
            "hier",
            spec,
            racks=args.racks,
            rack_size=args.rack_size,
            cross_bw_fraction=args.cross_bw,
        )
        serialized = NetworkSimulator(
            timeline, lm, time_model, overlap=False
        ).simulate_run(engine.transmissions)
        overlapped = NetworkSimulator(
            timeline, lm, time_model, overlap=True
        ).simulate_run(engine.transmissions)
        utilization = overlapped.mean_link_utilization
        rack_busy = max(
            v for k, v in utilization.items() if k.startswith("rack")
        )
        cross_busy = max(
            v for k, v in utilization.items() if k.startswith("cross")
        )
        rows.append(
            [
                link_name,
                f"{1e3 * serialized.mean_step_seconds:.2f} ms",
                f"{1e3 * overlapped.mean_step_seconds:.2f} ms",
                f"{serialized.mean_step_seconds / overlapped.mean_step_seconds:.2f}x",
                f"{overlapped.mean_overlap:.2f}",
                f"{cross_busy:.2f}",
                f"{rack_busy:.2f}",
            ]
        )
    print(
        format_table(
            [
                "Fabric link",
                "serialized",
                "per-layer overlap",
                "speedup",
                "measured overlap",
                "cross util",
                "rack util",
            ],
            rows,
            title=(
                "Two-tier step time, 3LC (s=1.00), core at "
                f"{args.cross_bw:.0%} of fabric"
            ),
        )
    )
    print(
        "\nthe cross column is the scarce tier's busy fraction; when it"
        "\napproaches 1.0 the core sets the step time and compressing the"
        "\nper-rack aggregate is what buys speed (ledger rows hier.* sweep this)."
    )


if __name__ == "__main__":
    main()
