#!/usr/bin/env python
"""Barrier granularity vs. achieved overlap (paper §2.1).

The paper credits fine-grained per-layer barriers with hiding communication
behind backward computation. This benchmark measures exactly how much
hiding each granularity buys: it trains a small cluster once, records every
step's transmission plan, then replays the run through the discrete-event
simulator with the backward timeline coarsened to 1, 2, 4, ... barrier
groups. One group means "transmit only when backward finishes" (the
coarse-grained strawman); the full timeline is per-layer scheduling.

Asserted, not just printed: the serialized schedule matches the analytic
closed form, per-layer scheduling achieves at least as much overlap as the
single-barrier schedule, and no overlapped schedule is slower than
serialized.

With ``--sync-mode async`` (or ``ssp`` plus ``--staleness``) the sweep
replays a recorded per-update *event stream* through the event-driven
simulator instead: per-worker virtual clocks, FIFO link interleaving, and
blocking SSP barriers, reporting per-worker throughput, the effective
staleness distribution, and link utilization at each bandwidth.

Run:  python benchmarks/bench_overlap.py [--smoke] [--steps N]
      python benchmarks/bench_overlap.py --smoke --sync-mode async
(also collectable by pytest: ``pytest benchmarks/bench_overlap.py``)
"""

import argparse
import sys
from dataclasses import dataclass

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.barriers import StragglerSpec
from repro.exchange import MODELED, SYNC_MODES, EngineConfig, ExchangeEngine
from repro.netsim import EventDrivenSimulator, NetworkSimulator, single_server_links
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.utils.format import format_table

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)


@dataclass(frozen=True)
class GranularityRow:
    groups: int
    mean_step_seconds: float
    serialized_seconds: float
    achieved_overlap: float
    hidden_fraction: float

    @property
    def speedup(self) -> float:
        return self.serialized_seconds / self.mean_step_seconds


def run_sweep(
    *,
    steps: int,
    depth: int,
    base_width: int,
    link_name: str = "10Mbps",
    tracer=None,
) -> tuple[list[GranularityRow], float, float]:
    """Train once, then simulate every barrier granularity.

    Returns the per-granularity rows plus (simulated serialized mean,
    analytic closed-form mean) for the calibration check. With a
    :class:`repro.telemetry.Tracer`, each granularity's replay emits
    spans under its own ``groups=N`` trace group (``--trace-out``).
    """
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    engine = ExchangeEngine(
        lambda: build_resnet(depth, base_width=base_width, seed=1),
        dataset,
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(
            num_workers=2,
            batch_size=8,
            shard_size=64,
            seed=0,
            record_transmissions=True,
        ),
    )
    engine.train(steps)

    model = build_resnet(depth, base_width=base_width, seed=1)
    images, labels = dataset.train_shard(0, 8)
    timeline = profile_backward(model, images, labels)
    spec = link(link_name)

    serialized = NetworkSimulator(
        timeline, single_server_links(spec), TIME_MODEL, overlap=False
    ).simulate_run(engine.transmissions)
    analytic = sum(
        TIME_MODEL.step_seconds(s, spec) for s in engine.traffic.steps
    ) / len(engine.traffic.steps)

    granularities = [1, 2, 4, 8, len(timeline.layers)]
    rows = []
    for groups in dict.fromkeys(g for g in granularities if g <= len(timeline.layers)):
        sim = NetworkSimulator(
            timeline.coarsen(groups),
            single_server_links(spec),
            TIME_MODEL,
            overlap=True,
            tracer=tracer,
            trace_group=f"groups={groups}",
        )
        run = sim.simulate_run(engine.transmissions)
        rows.append(
            GranularityRow(
                groups=groups,
                mean_step_seconds=run.mean_step_seconds,
                serialized_seconds=serialized.mean_step_seconds,
                achieved_overlap=run.mean_overlap,
                hidden_fraction=run.mean_hidden_fraction,
            )
        )
    return rows, serialized.mean_step_seconds, analytic


def check_and_render(
    rows: list[GranularityRow], serialized: float, analytic: float, link_name: str
) -> str:
    assert abs(serialized - analytic) / analytic < 0.01, (
        f"serialized simulation {serialized} != analytic {analytic}"
    )
    for row in rows:
        assert row.mean_step_seconds <= row.serialized_seconds * (1 + 1e-9)
        assert 0.0 <= row.achieved_overlap <= 1.0
    finest, coarsest = rows[-1], rows[0]
    assert finest.achieved_overlap >= coarsest.achieved_overlap - 1e-9
    # Per-layer barriers must hide strictly more communication than the
    # coarse single-barrier schedule (the paper's §2.1 claim, measured).
    assert finest.hidden_fraction > coarsest.hidden_fraction
    assert finest.mean_step_seconds <= coarsest.mean_step_seconds * (1 + 1e-9)

    table = format_table(
        ["Barrier groups", "s/step", "Overlap", "Comm hidden", "Speedup vs serialized"],
        [
            [
                str(r.groups),
                f"{r.mean_step_seconds:.4f}",
                f"{r.achieved_overlap:.3f}",
                f"{100 * r.hidden_fraction:.1f}%",
                f"{r.speedup:.2f}x",
            ]
            for r in rows
        ],
        title=f"Per-layer overlap vs barrier granularity @ {link_name}",
    )
    footer = (
        f"serialized {serialized:.4f} s/step == analytic closed form "
        f"{analytic:.4f} s/step (overlap=0)"
    )
    return f"{table}\n{footer}"


def run_event_sweep(
    *,
    updates: int,
    depth: int,
    base_width: int,
    staleness: int | None,
    link_names: tuple[str, ...] = ("10Mbps", "100Mbps", "1Gbps"),
    tracer=None,
) -> str:
    """Train one async/SSP run, then replay its event stream per link.

    Asserted, not just printed: event-driven wall time never exceeds the
    one-global-chain serialized baseline, link utilization stays in
    (0, 1], every worker commits updates, and the replayed schedule
    respects the recording's commit order.
    """
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    engine = ExchangeEngine(
        lambda: build_resnet(depth, base_width=base_width, seed=1),
        dataset,
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, updates),
        EngineConfig(
            num_workers=2,
            batch_size=8,
            shard_size=64,
            seed=0,
            sync_mode="ssp" if staleness is not None else "async",
            staleness=staleness,
            straggler=StragglerSpec(
                jitter_sigma=0.0,
                slowdown_probability=0.25,
                slowdown_factor=4.0,
                seed=7,
            ),
            record_transmissions=True,
            clock=MODELED,
        ),
    )
    engine.train(updates)
    events = engine.update_events

    model = build_resnet(depth, base_width=base_width, seed=1)
    images, labels = dataset.train_shard(0, 8)
    timeline = profile_backward(model, images, labels)

    rows = []
    for link_name in link_names:
        sim = EventDrivenSimulator(
            timeline,
            single_server_links(link(link_name)),
            TIME_MODEL,
            staleness=staleness,
            overlap=True,
            tracer=tracer,
            trace_group=f"sim:{link_name}",
        )
        exchange = sim.simulate(events)
        assert exchange.total_seconds <= exchange.serialized_seconds * (1 + 1e-9)
        assert 0.0 < exchange.link_utilization["server"] <= 1.0
        assert len(exchange.per_worker_updates) == 2
        assert all(n > 0 for n in exchange.per_worker_updates.values())
        # Per-worker schedules stay causally ordered (cross-worker commit
        # order may legitimately differ from the recording: the simulated
        # network reorders arrivals the engine's compute-only clocks
        # could not see).
        for worker in exchange.per_worker_updates:
            commits = [
                u.commit_seconds for u in exchange.updates if u.worker == worker
            ]
            assert commits == sorted(commits)
        throughput = "/".join(
            f"{v:.1f}" for v in exchange.per_worker_throughput.values()
        )
        rows.append(
            [
                link_name,
                f"{exchange.mean_update_seconds:.4f}",
                f"{100 * exchange.achieved_overlap:.1f}%",
                f"{exchange.overlap_speedup:.2f}x",
                throughput,
                f"{exchange.link_utilization['server']:.2f}",
            ]
        )
    mode = "fully async" if staleness is None else f"SSP(staleness={staleness})"
    histogram = ", ".join(
        f"{k}:{v}" for k, v in exchange.staleness_histogram.items()
    )
    table = format_table(
        [
            "Link",
            "s/update",
            "Comm hidden",
            "Speedup vs chain",
            "Updates/s per worker",
            "Server util",
        ],
        rows,
        title=f"Event-driven schedule — {mode}, {updates} updates",
    )
    footer = (
        f"observed staleness distribution (versions behind at commit): "
        f"{{{histogram}}}"
    )
    return f"{table}\n{footer}"


def test_overlap_granularity():
    """Pytest entry point: smoke-scale sweep with the assertions on."""
    rows, serialized, analytic = run_sweep(steps=4, depth=8, base_width=4)
    body = check_and_render(rows, serialized, analytic, "10Mbps")
    print(f"\n=== Overlap granularity sweep (smoke) ===\n{body}")


def test_event_driven_async():
    """Pytest entry point: async event-replay smoke with assertions on."""
    body = run_event_sweep(updates=6, depth=8, base_width=4, staleness=None)
    print(f"\n=== Event-driven async schedule (smoke) ===\n{body}")


def test_event_driven_ssp():
    """Pytest entry point: SSP event-replay smoke with a blocking gate."""
    body = run_event_sweep(updates=6, depth=8, base_width=4, staleness=1)
    print(f"\n=== Event-driven SSP schedule (smoke) ===\n{body}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI"
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--link", default="10Mbps", choices=["10Mbps", "100Mbps", "1Gbps"])
    parser.add_argument(
        "--sync-mode", default="bsp", choices=SYNC_MODES,
        help="bsp sweeps barrier granularity; async/ssp replay a recorded "
        "per-update event stream through the event-driven simulator",
    )
    parser.add_argument(
        "--staleness", type=int, default=None,
        help="staleness bound for --sync-mode ssp",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON timeline of the simulated "
        "replays (one trace group per barrier granularity or link)",
    )
    args = parser.parse_args(argv)

    # The sync-mode rules are EngineConfig's; refuse a bad pair before training.
    try:
        EngineConfig(sync_mode=args.sync_mode, staleness=args.staleness)
    except ValueError as error:
        spelled = f"--sync-mode {args.sync_mode}"
        if args.staleness is not None:
            spelled += f" --staleness {args.staleness}"
        parser.error(f"{error} (set by {spelled})")

    if args.smoke:
        steps, depth, width = 4, 8, 4
    else:
        steps, depth, width = 24, 14, 8
    if args.steps is not None:
        steps = args.steps

    tracer = None
    if args.trace_out:
        from repro.telemetry import Tracer

        tracer = Tracer()

    if args.sync_mode != "bsp":
        report = run_event_sweep(
            updates=max(steps, 6),
            depth=depth,
            base_width=width,
            staleness=args.staleness,
            tracer=tracer,
        )
        print(report)
    else:
        rows, serialized, analytic = run_sweep(
            steps=steps,
            depth=depth,
            base_width=width,
            link_name=args.link,
            tracer=tracer,
        )
        print(check_and_render(rows, serialized, analytic, args.link))

    if tracer is not None:
        from repro.telemetry.export import write_chrome_trace

        events = write_chrome_trace(args.trace_out, [("bench_overlap", tracer)])
        print(f"wrote {events} trace events to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
