#!/usr/bin/env python
"""Hierarchical exchange: compression scheme x cross-rack bandwidth.

3LC's thesis is that traffic compression matters most where bandwidth is
scarcest. The hierarchical topology makes that regime measurable: rack
rings move bytes over fast local links while one compressed aggregate per
rack crosses the scarce core. This benchmark trains a small hierarchical
cluster once per scheme (recording every step's two-tier transmission
plan) and replays the run through the discrete-event simulator while the
cross-rack uplink shrinks from parity with the fabric down to a WAN-like
trickle — the sweep Table 1 cannot show with a flat topology.

Asserted, not just printed: the serialized schedule equals the analytic
per-tier closed form (compute + codec + staged tier transfers) at every
swept point, the overlapped schedule is never slower than serialized, the
cross link is the busiest tier once it is scarcer than the fabric, and
compression's speedup over raw float32 grows as the core shrinks.

Run:  python benchmarks/bench_hier.py [--smoke] [--steps N]
(also collectable by pytest: ``pytest benchmarks/bench_hier.py``)
"""

import argparse
import sys

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.netsim import (
    NetworkSimulator,
    link_model_for,
    per_tier_serialized_seconds,
)
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.utils.format import format_table

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)
CROSS_FRACTIONS = (1.0, 0.25, 0.1, 0.02)
SCHEMES = ("32-bit float", "3LC (s=1.00)")


def train_recorded(scheme: str, *, steps: int, depth: int, base_width: int):
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    engine = ExchangeEngine(
        lambda: build_resnet(depth, base_width=base_width, seed=1),
        dataset,
        make_compressor(scheme, seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(
            num_workers=4,
            batch_size=8,
            shard_size=64,
            seed=0,
            topology="hier",
            racks=2,
            rack_size=2,
            record_transmissions=True,
        ),
    )
    engine.train(steps)
    return engine, dataset


def run_sweep(
    *,
    steps: int,
    depth: int,
    base_width: int,
    link_name: str = "100Mbps",
    tracer=None,
) -> str:
    """Sweep cross-rack bandwidth fractions for each scheme.

    With a :class:`repro.telemetry.Tracer`, each (fraction, scheme)
    overlapped replay emits spans under its own trace group
    (``--trace-out``); the serialized baselines stay untraced.
    """
    engines = {
        scheme: train_recorded(
            scheme, steps=steps, depth=depth, base_width=base_width
        )
        for scheme in SCHEMES
    }
    _, dataset = engines[SCHEMES[0]]
    timeline = profile_backward(
        build_resnet(depth, base_width=base_width, seed=1),
        *dataset.train_shard(0, 8),
    )

    rows = []
    speedups = []
    for fraction in CROSS_FRACTIONS:
        lm = link_model_for(
            "hier",
            link(link_name),
            racks=2,
            rack_size=2,
            cross_bw_fraction=fraction,
        )
        means = {}
        for scheme, (engine, _) in engines.items():
            serialized = NetworkSimulator(
                timeline, lm, TIME_MODEL, overlap=False
            ).simulate_run(engine.transmissions)
            overlapped = NetworkSimulator(
                timeline,
                lm,
                TIME_MODEL,
                overlap=True,
                tracer=tracer,
                trace_group=f"cross={fraction:.2f} {scheme}",
            ).simulate_run(engine.transmissions)
            analytic = sum(
                per_tier_serialized_seconds(st, lm, TIME_MODEL)
                for st in engine.transmissions
            ) / len(engine.transmissions)
            assert abs(serialized.mean_step_seconds - analytic) < 1e-9, (
                f"serialized {serialized.mean_step_seconds} != "
                f"per-tier closed form {analytic} at cross-bw {fraction}"
            )
            assert overlapped.mean_step_seconds <= (
                serialized.mean_step_seconds * (1 + 1e-9)
            )
            utilization = overlapped.mean_link_utilization
            cross_util = max(
                v for k, v in utilization.items() if k.startswith("cross")
            )
            if fraction < 1.0:
                # The scarce core must be the busy tier.
                assert cross_util >= utilization["rack0"]
            means[scheme] = (
                overlapped.mean_step_seconds, cross_util, utilization
            )
        raw_seconds = means["32-bit float"][0]
        lossy_seconds, lossy_cross, lossy_util = means["3LC (s=1.00)"]
        speedups.append(raw_seconds / lossy_seconds)
        rows.append(
            [
                f"{fraction:.2f}",
                f"{1e3 * raw_seconds:.2f} ms",
                f"{1e3 * lossy_seconds:.2f} ms",
                f"{speedups[-1]:.2f}x",
                f"{lossy_cross:.2f}",
                f"{lossy_util['rack0']:.2f}",
            ]
        )
    # The paper's claim, measured: compression buys more as the core
    # shrinks (speedup at the scarcest point beats the parity point).
    assert speedups[-1] > speedups[0], (
        f"3LC speedup should grow as the core shrinks, got {speedups}"
    )
    return format_table(
        [
            "Cross-bw fraction",
            "float32 s/step",
            "3LC s/step",
            "3LC speedup",
            "Cross util",
            "Rack util",
        ],
        rows,
        title=f"Hierarchical exchange vs cross-rack bandwidth @ {link_name}",
    )


def test_hier_sweep():
    """Pytest entry point: smoke-scale sweep with the assertions on."""
    body = run_sweep(steps=4, depth=8, base_width=4)
    print(f"\n=== Hierarchical cross-bandwidth sweep (smoke) ===\n{body}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI"
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--link", default="100Mbps", choices=["10Mbps", "100Mbps", "1Gbps"]
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON timeline of the overlapped "
        "replays (one trace group per cross-bw fraction and scheme)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        steps, depth, width = 4, 8, 4
    else:
        steps, depth, width = 16, 14, 8
    if args.steps is not None:
        steps = args.steps

    tracer = None
    if args.trace_out:
        from repro.telemetry import Tracer

        tracer = Tracer()

    report = run_sweep(
        steps=steps,
        depth=depth,
        base_width=width,
        link_name=args.link,
        tracer=tracer,
    )
    print(report)
    if tracer is not None:
        from repro.telemetry.export import write_chrome_trace

        events = write_chrome_trace(args.trace_out, [("bench_hier", tracer)])
        print(f"wrote {events} trace events to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
