"""Command-line interface: regenerate any table or figure.

Usage::

    repro-3lc table1 [--fast]
    repro-3lc table2 [--fast]
    repro-3lc fig4 | fig5 | fig6 | fig7 | fig8 | fig9 [--fast]
    repro-3lc related-work [--fast]     # §6 designs under Table 1 protocol
    repro-3lc all [--fast]

``--fast`` uses the miniature configuration (seconds instead of minutes;
noisier numbers). ``--steps N`` overrides the standard step budget.
``--topology`` / ``--sync-mode`` (plus ``--shards`` / ``--staleness``,
and ``--racks`` / ``--rack-size`` / ``--cross-bw`` / ``--cross-rtt`` for
the hierarchical topology) swap the exchange plan; ``--fuse`` turns on
the fused-bucket wire plan for small tensors (``--bucket-elements``
sizes the buckets, ``--fuse-lossy`` compresses each whole bucket through
the scheme's codec with one shared scale); ``--sim-overlap`` times
steps with the discrete-event network simulator (per-layer overlap,
per-topology links — two dependent tiers for ``hier``) instead of the
calibrated overlap constant; ``--priority smallest`` serves the
smallest compressed gradient first inside the simulator. ``--plan
FILE`` overlays a tuned ``repro.plan/v1`` artifact from
``python -m repro.tuner`` (the plan's fields win, its scheme joins
every sweep).

Churn: ``--backup-workers N`` arms the paper's §2.1 backup-worker
barrier; ``--crash W:STEP[:DOWN][:depart]`` and
``--flap RACK:STEP[:DOWN[:DELAY]]`` inject worker crashes and rack
uplink flaps (``--max-restarts`` caps restarts before permanent
departure, ``--no-checkpoint-state`` ablates error-feedback recovery).

Observability: ``--telemetry`` records per-run metric series and
simulated-clock spans; ``--trace-out PATH`` writes a Chrome
``trace_event`` JSON timeline (load in Perfetto / ``chrome://tracing``;
one track per worker, link, and server tier) and ``--metrics-out PATH``
writes JSONL per-step metric snapshots — both imply ``--telemetry``.
``--report-out PATH`` runs critical-path attribution over every traced
run and writes the ranked ``repro.bottleneck-report/v1`` artifact;
``--serve-metrics PORT`` exposes live Prometheus text (``/metrics``)
and an NDJSON snapshot feed (``/stream``) while the command runs —
all imply ``--telemetry``. ``--log-level`` tunes the shared stderr
logger (default ``info``).
"""

from __future__ import annotations

import argparse
import sys

from repro.compression.registry import (
    RELATED_WORK_SCHEMES,
    TABLE1_SCHEMES,
    make_compressor,
)
from repro.data.synthetic import input_memo
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange.wireplan import fusion_incompatibility
from repro.harness.config import DEFAULT_CONFIG, FAST_CONFIG
from repro.harness.figures import (
    FAST_SCHEMES,
    FIGURE7_SCHEMES,
    OVERVIEW_SCHEMES,
    figure7_curves,
    figure8_sparsity,
    figure9_compressed_size,
    figure_time_accuracy,
)
from repro.harness.runner import ExperimentRunner
from repro.netsim.replay import SweepReplayCache
from repro.harness.tables import related_work_table, table1, table2
from repro.utils.logging import LOG_LEVELS, set_level

__all__ = ["main"]

_FIGURE_LINKS = {"fig4": "10Mbps", "fig5": "100Mbps", "fig6": "1Gbps"}


def _drop_deferring(schemes: tuple[str, ...]) -> tuple[str, ...]:
    """Schemes that transmit every step (collective/event-recording subset).

    A ring hop must carry *something* for the reduction to proceed — this
    covers the flat ring and the hierarchical topology's rack rings — and
    an async/SSP *event stream* records a push per update, so
    schedule-changing schemes (``defers_transmission``) are dropped from
    those sweeps and from simulated (``--sim-overlap``) async/SSP sweeps
    instead of crashing mid-command. Plain async/SSP training tolerates
    deferral (updates ride the error buffers), so unsimulated sweeps keep
    those rows.
    """
    return tuple(
        name
        for name in schemes
        if not make_compressor(name, seed=0).defers_transmission
    )


def _parse_crash(text: str) -> WorkerCrash:
    """``WORKER:STEP[:DOWN_STEPS][:depart]`` → :class:`WorkerCrash`.

    Raises :class:`ValueError` naming the malformed flag value; range
    errors come from the spec's own validation.
    """
    parts = text.split(":")
    depart = False
    if parts and parts[-1] == "depart":
        depart = True
        parts = parts[:-1]
    if not 2 <= len(parts) <= 3:
        raise ValueError(
            f"--crash {text!r}: expected WORKER:STEP[:DOWN_STEPS][:depart]"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"--crash {text!r}: WORKER/STEP/DOWN_STEPS must be integers"
        ) from None
    down_steps = numbers[2] if len(numbers) == 3 else 1
    return WorkerCrash(
        worker=numbers[0], step=numbers[1], down_steps=down_steps, depart=depart
    )


def _parse_flap(text: str) -> UplinkFlap:
    """``RACK:STEP[:DOWN_STEPS[:DELAY_SECONDS]]`` → :class:`UplinkFlap`."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise ValueError(
            f"--flap {text!r}: expected RACK:STEP[:DOWN_STEPS[:DELAY_SECONDS]]"
        )
    try:
        rack, step = int(parts[0]), int(parts[1])
        down_steps = int(parts[2]) if len(parts) >= 3 else 1
        delay = float(parts[3]) if len(parts) == 4 else 0.0
    except ValueError:
        raise ValueError(
            f"--flap {text!r}: RACK/STEP/DOWN_STEPS must be integers, "
            "DELAY_SECONDS a number"
        ) from None
    return UplinkFlap(
        rack=rack, step=step, down_steps=down_steps, rejoin_delay_seconds=delay
    )


def _emit_time_accuracy(
    runner: ExperimentRunner,
    command: str,
    overview_schemes: tuple[str, ...],
    fast_schemes: tuple[str, ...],
) -> None:
    link = _FIGURE_LINKS[command]
    number = command.removeprefix("fig")
    overview = figure_time_accuracy(
        runner,
        link,
        overview_schemes,
        figure_name=f"Figure {number}a (overview) @ {link}",
    )
    fast = figure_time_accuracy(
        runner,
        link,
        fast_schemes,
        figure_name=f"Figure {number}b (fast designs) @ {link}",
    )
    print(overview.text)
    print()
    print(fast.text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-3lc",
        description="Regenerate tables and figures of the 3LC paper (MLSys 2019).",
    )
    parser.add_argument(
        "command",
        choices=[
            "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "related-work", "all",
        ],
    )
    parser.add_argument(
        "--fast", action="store_true", help="miniature configuration (quick, noisy)"
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="override the standard step budget"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override the worker count (e.g. to shape --fast runs into "
        "multiple racks: --workers 4 --racks 2 --rack-size 2)",
    )
    parser.add_argument(
        "--topology", choices=["single", "sharded", "ring", "hier"], default=None,
        help="exchange topology (default: single parameter server)",
    )
    parser.add_argument(
        "--sync-mode", choices=["bsp", "async", "ssp"], default=None,
        help="synchronization mode (default: BSP)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="server count for --topology sharded",
    )
    parser.add_argument(
        "--staleness", type=int, default=None,
        help="staleness bound for --sync-mode ssp",
    )
    parser.add_argument(
        "--backup-workers", type=int, default=None, metavar="N",
        help="backup workers (paper §2.1, BSP parameter-server topologies "
        "only): each step proceeds once num_workers - N pushes arrive and "
        "drops the stragglers",
    )
    parser.add_argument(
        "--crash", action="append", default=None, metavar="W:STEP[:DOWN]",
        help="inject a worker crash: worker W goes down at STEP for DOWN "
        "steps (default 1) and then restarts; append ':depart' to make "
        "the departure permanent; repeatable; BSP single/sharded only",
    )
    parser.add_argument(
        "--flap", action="append", default=None,
        metavar="RACK:STEP[:DOWN[:DELAY]]",
        help="inject a rack uplink flap: rack RACK loses its cross-rack "
        "uplink at STEP for DOWN steps (default 1), degrading to "
        "local-only steps, then rejoins (resync floored by DELAY "
        "seconds); repeatable; --topology hier only",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="per-worker restart budget before a crash becomes a "
        "permanent departure (default 2; requires --crash/--flap)",
    )
    parser.add_argument(
        "--no-checkpoint-state", action="store_true",
        help="disable error-feedback checkpointing on crash recovery "
        "(restarted workers rejoin with zeroed residuals and a stale "
        "replica -- the ablation bench_churn measures)",
    )
    parser.add_argument(
        "--racks", type=int, default=None,
        help="rack count for --topology hier (racks * rack-size must "
        "equal the worker count)",
    )
    parser.add_argument(
        "--rack-size", type=int, default=None,
        help="workers per rack for --topology hier (>= 2: each rack runs "
        "a local ring all-reduce)",
    )
    parser.add_argument(
        "--cross-bw", type=float, default=None, metavar="FRACTION",
        help="cross-rack uplink rate as a fraction of the swept link rate "
        "(default 0.1; --topology hier only)",
    )
    parser.add_argument(
        "--cross-rtt", type=float, default=None, metavar="SECONDS",
        help="per-frame propagation delay on cross-rack uplinks "
        "(default 0; --topology hier only)",
    )
    parser.add_argument(
        "--fuse", action="store_true",
        help="exchange small tensors through fused buckets (one frame per "
        "bucket per destination; buckets never span shard or rack-uplink "
        "boundaries, and async/SSP runs pull through per-worker fused "
        "streams)",
    )
    parser.add_argument(
        "--bucket-elements", type=int, default=None, metavar="N",
        help="fused-bucket capacity in elements (>= 1; --fuse only)",
    )
    parser.add_argument(
        "--fuse-lossy", action="store_true",
        help="compress each fused bucket through the scheme's own codec "
        "with one shared scale (instead of the exact float32 bypass); "
        "--fuse only",
    )
    parser.add_argument(
        "--priority", choices=["registration", "smallest"], default=None,
        help="transmission service order inside the simulator "
        "(simulation-side only): 'registration' (default) serves "
        "gradients in backward-pass order, 'smallest' drains the "
        "smallest compressed gradient first at equal readiness",
    )
    parser.add_argument(
        "--plan", metavar="PATH", default=None,
        help="load a repro.plan/v1 artifact (python -m repro.tuner) and "
        "overlay its tuned plan on the configuration — the plan's "
        "topology/fusion/priority fields win over flags, sim-overlap is "
        "forced on, and the plan's scheme joins every sweep",
    )
    parser.add_argument(
        "--sim-overlap", action="store_true",
        help="derive per-link step times from the discrete-event network "
        "simulator (per-layer overlap scheduling, honest per-topology "
        "link bottlenecks) instead of the calibrated overlap constant; "
        "with --sync-mode async|ssp this replays per-update event streams "
        "(per-worker virtual clocks, blocking SSP barriers)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="record labeled metric series and simulated-clock spans for "
        "every run; RunResult.telemetry_summary (and --save archives) "
        "carry the rollup",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON timeline of every run "
        "(Perfetto-loadable; one track per worker/link/server tier); "
        "implies --telemetry",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write JSONL per-step metric snapshots (one row per step "
        "plus a final rollup per run); implies --telemetry",
    )
    parser.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write a repro.bottleneck-report/v1 JSON artifact (ranked "
        "critical-path attribution of every traced run) and print the "
        "ranked bucket tables; implies --telemetry",
    )
    parser.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve live metrics on 127.0.0.1:PORT while the command "
        "runs (Prometheus text on /metrics, NDJSON snapshots on "
        "/stream); implies --telemetry",
    )
    parser.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default=None,
        help="stderr logger verbosity (default: info)",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="archive every training run to a JSON file after the command",
    )
    args = parser.parse_args(argv)

    if args.log_level is not None:
        set_level(args.log_level)

    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    if args.steps is not None:
        config = config.scaled(standard_steps=args.steps)
    if args.workers is not None:
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        config = config.scaled(num_workers=args.workers)
    # Flag/topology coherence checks name the offending value so a long
    # sweep command fails with an actionable message, not a bare rule.
    if args.shards is not None and args.topology != "sharded":
        parser.error(
            f"--shards {args.shards} requires --topology sharded "
            f"(got --topology {args.topology or 'single'})"
        )
    if args.staleness is not None and args.sync_mode != "ssp":
        parser.error(
            f"--staleness {args.staleness} requires --sync-mode ssp "
            f"(got --sync-mode {args.sync_mode or 'bsp'})"
        )
    if args.sync_mode == "ssp" and args.staleness is None:
        parser.error("--sync-mode ssp requires --staleness")
    if args.backup_workers is not None:
        # The engine would reject these too, but only after the sweep
        # starts training; fail at parse time with the value spelled out.
        if not (0 <= args.backup_workers < config.num_workers):
            parser.error(
                f"--backup-workers {args.backup_workers} must be in "
                f"[0, num_workers={config.num_workers})"
            )
        if args.topology == "ring":
            parser.error(
                f"--backup-workers {args.backup_workers} is incompatible "
                "with --topology ring (a ring reduction needs every "
                "node's chunk)"
            )
    if (args.max_restarts is not None or args.no_checkpoint_state) and not (
        args.crash or args.flap
    ):
        offender = (
            f"--max-restarts {args.max_restarts}"
            if args.max_restarts is not None
            else "--no-checkpoint-state"
        )
        parser.error(f"{offender} requires --crash or --flap")
    if (args.crash or args.flap) and args.sync_mode not in (None, "bsp"):
        parser.error(
            "--crash/--flap require BSP (the barrier is where membership "
            f"changes are decided; got --sync-mode {args.sync_mode})"
        )
    if args.crash and (args.topology or "single") not in ("single", "sharded"):
        parser.error(
            f"--crash requires --topology single|sharded "
            f"(got --topology {args.topology})"
        )
    if args.flap and args.topology != "hier":
        parser.error(
            f"--flap requires --topology hier "
            f"(got --topology {args.topology or 'single'})"
        )
    fault = None
    if args.crash or args.flap:
        fault_kwargs = {}
        if args.max_restarts is not None:
            fault_kwargs["max_restarts"] = args.max_restarts
        try:
            fault = FaultSpec(
                crashes=tuple(_parse_crash(text) for text in args.crash or ()),
                flaps=tuple(_parse_flap(text) for text in args.flap or ()),
                checkpoint_state=not args.no_checkpoint_state,
                **fault_kwargs,
            )
        except ValueError as error:
            parser.error(str(error))
    for flag, value in (
        ("--racks", args.racks),
        ("--rack-size", args.rack_size),
        ("--cross-bw", args.cross_bw),
        ("--cross-rtt", args.cross_rtt),
    ):
        if value is not None and args.topology != "hier":
            parser.error(
                f"{flag} {value} requires --topology hier "
                f"(got --topology {args.topology or 'single'})"
            )
    # Fusion compatibility fails at parse time with the engine's own
    # wording, so an overnight sweep command dies immediately — not three
    # topologies deep — and names the offending flags.
    if args.fuse:
        reason = fusion_incompatibility(
            args.topology or "single", racks=args.racks
        )
        if reason is not None:
            offender = f"--topology {args.topology}" + (
                f" --racks {args.racks}" if args.racks is not None else ""
            )
            parser.error(f"--fuse is incompatible with {offender}: {reason}")
    if args.bucket_elements is not None:
        if not args.fuse:
            parser.error(
                f"--bucket-elements {args.bucket_elements} requires --fuse "
                "(it sizes the fused-bucket plan)"
            )
        if args.bucket_elements < 1:
            parser.error(
                f"--bucket-elements must be >= 1, got {args.bucket_elements}"
            )
    if args.fuse_lossy and not args.fuse:
        parser.error(
            "--fuse-lossy selects the fused-bucket codec mode; it requires --fuse"
        )
    overrides = {}
    if args.topology is not None:
        overrides["topology"] = args.topology
    if args.sync_mode is not None:
        overrides["sync_mode"] = args.sync_mode
    if args.shards is not None:
        overrides["num_shards"] = args.shards
    if args.staleness is not None:
        overrides["staleness"] = args.staleness
    if args.backup_workers is not None:
        overrides["backup_workers"] = args.backup_workers
    if fault is not None:
        overrides["fault"] = fault
    if args.racks is not None:
        overrides["racks"] = args.racks
    if args.rack_size is not None:
        overrides["rack_size"] = args.rack_size
    if args.cross_bw is not None:
        overrides["cross_bw_fraction"] = args.cross_bw
    if args.cross_rtt is not None:
        overrides["cross_rtt_seconds"] = args.cross_rtt
    if args.fuse:
        overrides["fuse_small_tensors"] = True
    if args.bucket_elements is not None:
        overrides["bucket_elements"] = args.bucket_elements
    if args.fuse_lossy:
        overrides["fuse_lossy"] = True
    if args.sim_overlap:
        overrides["sim_overlap"] = True
    if args.priority is not None:
        overrides["transmission_priority"] = args.priority
    if (
        args.telemetry
        or args.trace_out
        or args.metrics_out
        or args.report_out
        or args.serve_metrics is not None
    ):
        overrides["telemetry"] = True
    if overrides:
        try:
            config = config.scaled(**overrides)
        except ValueError as error:
            # e.g. a worker count not divisible into racks of rack-size.
            parser.error(str(error))
    plan_scheme = None
    if args.plan is not None:
        from repro.tuner.artifact import apply_plan, load_plan

        try:
            config, plan_scheme = apply_plan(config, load_plan(args.plan))
        except OSError as error:
            parser.error(f"--plan {args.plan}: {error}")
        except ValueError as error:
            # Malformed artifact, or a plan the config's cluster shape
            # rejects (ExperimentConfig validation wording).
            parser.error(f"--plan {args.plan}: {error}")
        print(
            f"loaded plan {args.plan}: scheme={plan_scheme!r} "
            f"topology={config.topology} "
            f"priority={config.transmission_priority} "
            f"fuse={config.fuse_small_tensors} "
            f"clock={config.clock.name}"
        )
    # One sweep replay cache per invocation: commands sharing a scheme and
    # budget reuse the training recording and per-link simulations.
    runner = ExperimentRunner(config, replay_cache=SweepReplayCache())

    metrics_server = None
    if args.serve_metrics is not None:
        from repro.telemetry.analysis.serve import MetricsServer

        metrics_server = MetricsServer(
            lambda: list(runner.telemetry_sessions), port=args.serve_metrics
        ).start()
        print(
            f"serving metrics on {metrics_server.url}/metrics "
            f"(NDJSON feed on {metrics_server.url}/stream)"
        )

    commands = (
        ["table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "related-work"]
        if args.command == "all"
        else [args.command]
    )
    table1_schemes = TABLE1_SCHEMES
    related_schemes = RELATED_WORK_SCHEMES
    overview_schemes = OVERVIEW_SCHEMES
    fast_schemes = FAST_SCHEMES
    figure7_schemes = FIGURE7_SCHEMES
    if plan_scheme is not None:
        # The tuned scheme joins every sweep (the plan is pointless
        # without it); deferring-scheme filtering below still applies.
        def _with_plan(schemes: tuple[str, ...]) -> tuple[str, ...]:
            return schemes if plan_scheme in schemes else schemes + (plan_scheme,)

        table1_schemes = _with_plan(table1_schemes)
        related_schemes = _with_plan(related_schemes)
        overview_schemes = _with_plan(overview_schemes)
        fast_schemes = _with_plan(fast_schemes)
        figure7_schemes = _with_plan(figure7_schemes)
    if config.topology in ("ring", "hier") or (
        config.sim_overlap and config.sync_mode in ("async", "ssp")
    ):
        table1_schemes = _drop_deferring(table1_schemes)
        related_schemes = _drop_deferring(related_schemes)
        overview_schemes = _drop_deferring(overview_schemes)
        fast_schemes = _drop_deferring(fast_schemes)
        figure7_schemes = _drop_deferring(figure7_schemes)

    for command in commands:
        if command == "table1":
            _, text = table1(runner, table1_schemes)
            print(text)
        elif command == "table2":
            _, text = table2(runner)
            print(text)
        elif command in _FIGURE_LINKS:
            _emit_time_accuracy(runner, command, overview_schemes, fast_schemes)
        elif command == "fig7":
            loss_fig, acc_fig = figure7_curves(runner, figure7_schemes)
            print(loss_fig.text)
            print()
            print(acc_fig.text)
        elif command == "fig8":
            print(figure8_sparsity(runner).text)
        elif command == "fig9":
            print(figure9_compressed_size(runner, "3LC (s=1.00)").text)
            print()
            print(figure9_compressed_size(runner, "3LC (s=1.75)").text)
        elif command == "related-work":
            _, text = related_work_table(runner, related_schemes)
            print(text)
        print()

    stats = runner.replay_cache.stats()
    inputs = input_memo.stats()
    print(
        "replay cache: "
        f"{stats['recordings']} recordings "
        f"({stats['recording_hits']} hits / "
        f"{stats['recording_misses']} misses), "
        f"{stats['simulations']} simulations "
        f"({stats['simulation_hits']} hits / "
        f"{stats['simulation_misses']} misses), "
        f"{stats['extraction_hits']} warm extractions, "
        f"{inputs['entries']} inputs {inputs['bytes'] / 2**20:.1f} MiB "
        f"({inputs['hits']} hits / {inputs['misses']} misses)"
    )

    if args.trace_out or args.metrics_out:
        from repro.telemetry.export import (
            write_chrome_trace,
            write_metric_snapshots,
        )

        sessions = runner.telemetry_sessions
        if args.trace_out:
            events = write_chrome_trace(args.trace_out, sessions)
            print(f"wrote {events} trace events to {args.trace_out}")
        if args.metrics_out:
            rows = write_metric_snapshots(args.metrics_out, sessions)
            print(f"wrote {rows} metric rows to {args.metrics_out}")
    if args.report_out:
        import json as _json
        from pathlib import Path as _Path

        from repro.telemetry.analysis.attribution import (
            attribute_trace,
            bottleneck_report,
            report_text,
            spans_from_tracer,
        )

        spans = []
        for label, session in runner.telemetry_sessions:
            spans.extend(spans_from_tracer(session.tracer, label))
        report = bottleneck_report(attribute_trace(spans))
        out = _Path(args.report_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(report, indent=2) + "\n")
        print(report_text(report))
        print(f"wrote bottleneck report to {args.report_out}")
    if metrics_server is not None:
        metrics_server.stop()
    if args.save:
        from repro.harness.results_io import save_results

        results = list(runner._cache.values())
        save_results(results, args.save)
        print(f"archived {len(results)} runs to {args.save}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
