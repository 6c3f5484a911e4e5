"""Command-line interface: regenerate any table or figure.

Usage::

    repro-3lc table1 [--fast]
    repro-3lc table2 [--fast]
    repro-3lc fig4 | fig5 | fig6 | fig7 | fig8 | fig9 [--fast]
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
``python -m repro.tuner`` (its scheme joins every sweep; a flag for a
field the plan sets is refused, every other flag composes with it).

Which combinations are legal is the configuration's own rule set
(``ExperimentConfig``'s own checks, then those of ``EngineConfig``, the
class it derives from): :func:`parse_config` builds the config once and
reports whatever it raises, followed by the flags the error depends on.
The one thing checked here is observability
(:data:`~repro.harness.config.OBSERVED_UNDER` and
:data:`~repro.harness.config.SIMULATED_ONLY`): a flag for a knob the
selected topology, sync mode, fusion switch or timing model cannot
observe is refused.

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
run and writes the ranked ``repro.bottleneck-report/v1`` artifact
(implies ``--telemetry``). ``--log-level`` tunes the shared stderr
logger (default ``info``).
"""

from __future__ import annotations

import argparse
import sys

from repro.compression.registry import TABLE1_SCHEMES, make_compressor
from repro.data.synthetic import input_memo
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange.engine import SYNC_MODES, scheme_incompatibility
from repro.exchange.topology import TOPOLOGIES
from repro.harness.config import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    OBSERVED_UNDER,
    SIMULATED_ONLY,
)
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
from repro.harness.tables import table1, table2
from repro.netsim import PRIORITIES
from repro.tuner.artifact import apply_plan, load_plan
from repro.tuner.space import PLAN_FIELDS
from repro.utils.logging import LOG_LEVELS, set_level

__all__ = ["main", "parse_config", "FIELD_FLAGS"]

_FIGURE_LINKS = {"fig4": "10Mbps", "fig5": "100Mbps", "fig6": "1Gbps"}

#: ``ExperimentConfig`` field -> the flag that sets it. A flag left off the
#: command line leaves its field to the base config (or a loaded plan).
FIELD_FLAGS = {
    "standard_steps": "--steps",
    "num_workers": "--workers",
    "topology": "--topology",
    "sync_mode": "--sync-mode",
    "num_shards": "--shards",
    "staleness": "--staleness",
    "backup_workers": "--backup-workers",
    "racks": "--racks",
    "rack_size": "--rack-size",
    "cross_bw_fraction": "--cross-bw",
    "cross_rtt_seconds": "--cross-rtt",
    "fuse_small_tensors": "--fuse",
    "bucket_elements": "--bucket-elements",
    "fuse_lossy": "--fuse-lossy",
    "transmission_priority": "--priority",
    "sim_overlap": "--sim-overlap",
}

#: The scheme tuple behind each sweep a command prints.
_SWEEPS = {
    "table1": TABLE1_SCHEMES,
    "overview": OVERVIEW_SCHEMES,
    "fast": FAST_SCHEMES,
    "fig7": FIGURE7_SCHEMES,
}


def _spell(field: str, value) -> str:
    """A field's value as the flag that would set it."""
    flag = FIELD_FLAGS[field]
    return flag if value is True else f"{flag} {value}"


def _parse_crash(text: str) -> WorkerCrash:
    """``WORKER:STEP[:DOWN_STEPS][:depart]`` → :class:`WorkerCrash`.

    Raises :class:`ValueError` naming the flag value: a malformed one, or
    one the spec's own validation refuses (quoting its message).
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
    try:
        return WorkerCrash(
            worker=numbers[0], step=numbers[1], down_steps=down_steps, depart=depart
        )
    except ValueError as error:
        raise ValueError(f"--crash {text!r}: {error}") from None


def _parse_flap(text: str) -> UplinkFlap:
    """``RACK:STEP[:DOWN_STEPS[:DELAY_SECONDS]]`` → :class:`UplinkFlap`
    (errors as :func:`_parse_crash`)."""
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
    try:
        return UplinkFlap(
            rack=rack, step=step, down_steps=down_steps, rejoin_delay_seconds=delay
        )
    except ValueError as error:
        raise ValueError(f"--flap {text!r}: {error}") from None


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-3lc",
        description="Regenerate tables and figures of the 3LC paper (MLSys 2019).",
    )
    parser.add_argument(
        "command",
        choices=[
            "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "all",
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
        "--topology", choices=TOPOLOGIES, default=None,
        help="exchange topology (default: single parameter server)",
    )
    parser.add_argument(
        "--sync-mode", choices=SYNC_MODES, default=None,
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
        "replica -- the ablation ledger row churn.naive_worse measures)",
    )
    parser.add_argument(
        "--racks", type=int, default=None,
        help="rack count for --topology hier (>= 2; racks * rack-size "
        "must equal the worker count)",
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
        "--fuse", action="store_true", default=None,
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
        "--fuse-lossy", action="store_true", default=None,
        help="compress each fused bucket through the scheme's own codec "
        "with one shared scale (instead of the exact float32 bypass); "
        "--fuse only",
    )
    parser.add_argument(
        "--priority", choices=PRIORITIES, default=None,
        help="transmission service order inside the simulator "
        "(simulation-side only): 'registration' (default) serves "
        "gradients in backward-pass order, 'smallest' drains the "
        "smallest compressed gradient first at equal readiness",
    )
    parser.add_argument(
        "--plan", metavar="PATH", default=None,
        help="load a repro.plan/v1 artifact (python -m repro.tuner) and "
        "overlay its tuned plan on the configuration — a flag for a "
        "topology/fusion/priority field the plan sets is an error, "
        "sim-overlap is forced on, and the plan's scheme joins every sweep",
    )
    parser.add_argument(
        "--sim-overlap", action="store_true", default=None,
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
        "--log-level", choices=list(LOG_LEVELS), default=None,
        help="stderr logger verbosity (default: info)",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="archive every training run to a JSON file after the command",
    )
    return parser


def parse_config(argv: list[str] | None = None):
    """The command line as ``(args, config, plan_scheme)``; trains nothing.

    Exits through ``parser.error`` — naming the flags involved — on a flag
    its selector cannot observe, a flag for a field ``--plan`` sets, and
    anything the configuration's own validation raises.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    base = FAST_CONFIG if args.fast else DEFAULT_CONFIG

    # What the command line sets, and how to spell each source in a message.
    overrides, spelled = {}, {}
    for field, flag in FIELD_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[field], spelled[field] = value, _spell(field, value)
    if args.crash or args.flap:
        fault_kwargs = {}
        if args.max_restarts is not None:
            fault_kwargs["max_restarts"] = args.max_restarts
        try:
            overrides["fault"] = FaultSpec(
                crashes=tuple(_parse_crash(text) for text in args.crash or ()),
                flaps=tuple(_parse_flap(text) for text in args.flap or ()),
                checkpoint_state=not args.no_checkpoint_state,
                **fault_kwargs,
            )
        except ValueError as error:
            parser.error(str(error))
        spelled["fault"] = " ".join(
            [f"--crash {text}" for text in args.crash or ()]
            + [f"--flap {text}" for text in args.flap or ()]
        )
    elif args.max_restarts is not None or args.no_checkpoint_state:
        offender = (
            f"--max-restarts {args.max_restarts}"
            if args.max_restarts is not None
            else "--no-checkpoint-state"
        )
        parser.error(f"{offender} requires --crash or --flap")
    if args.telemetry or args.trace_out or args.metrics_out or args.report_out:
        overrides["telemetry"] = True

    plan = None
    if args.plan is not None:
        try:
            plan = load_plan(args.plan)
        except OSError as error:
            parser.error(f"--plan {args.plan}: {error.strerror}")
        except ValueError as error:
            parser.error(f"--plan {error}")
        spelled["plan"] = f"--plan {args.plan}"
        for field in PLAN_FIELDS:
            if field in overrides:
                parser.error(
                    f"--plan {args.plan} sets {field}={plan['plan'][field]!r}; "
                    f"it cannot be combined with {spelled[field]}"
                )

    # Observability: a flag whose selector (given, planned or the base's)
    # holds another value would be accepted and then read by nothing. A
    # plan sets its own fields and turns the simulator on.
    chosen = (plan["plan"] | {"sim_overlap": True} if plan else {}) | overrides
    for field in overrides:
        rules = [OBSERVED_UNDER[field]] if field in OBSERVED_UNDER else []
        if field in SIMULATED_ONLY:
            rules.append(("sim_overlap", True))
        for selector, wanted in rules:
            actual = chosen.get(selector, getattr(base, selector))
            if actual != wanted:
                got = "" if wanted is True else f" (got {_spell(selector, actual)})"
                parser.error(
                    f"{spelled[field]} requires {_spell(selector, wanted)}{got}"
                )

    # Legality is the configuration's own rule set: build it once, in one
    # construction, so a plan and the flags that complete it are judged
    # together.
    def outcome(fields: dict, plan: dict | None):
        """``(config, plan_scheme)``, or the message the construction raised."""
        try:
            if plan is None:
                return base.scaled(**fields), None
            return apply_plan(base, plan, **fields)
        except ValueError as error:
            return str(error)

    built = outcome(overrides, plan)
    if isinstance(built, str):
        # Name the sources the error depends on: those whose removal
        # changes the outcome.
        def without(field: str) -> dict:
            return {k: v for k, v in overrides.items() if k != field}

        involved = [
            spelled[field]
            for field in overrides
            if field in spelled and outcome(without(field), plan) != built
        ]
        if plan is not None and outcome(overrides, None) != built:
            involved.append(spelled["plan"])
        parser.error(f"{built} (set by {', '.join(involved or spelled.values())})")
    config, plan_scheme = built
    if plan_scheme is not None:
        try:
            reason = scheme_incompatibility(config, make_compressor(plan_scheme, seed=0))
        except KeyError as error:
            reason = error.args[0]
        if reason is not None:
            parser.error(f"--plan {args.plan}: {reason}")
    return args, config, plan_scheme


def main(argv: list[str] | None = None) -> int:
    args, config, plan_scheme = parse_config(argv)
    if args.log_level is not None:
        set_level(args.log_level)
    if args.plan is not None:
        fields = " ".join(
            f"{name}={getattr(config, name)}" for name in PLAN_FIELDS if name != "scheme"
        )
        print(
            f"loaded plan {args.plan}: scheme={plan_scheme!r} {fields} "
            f"clock={config.clock.name}"
        )
    # One runner per invocation: commands sharing a scheme and budget get
    # its cached RunResult, so no sweep replay cache is needed.
    runner = ExperimentRunner(config)

    commands = (
        ["table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
        if args.command == "all"
        else [args.command]
    )
    # The tuned scheme joins every sweep (the plan is pointless without
    # it). Schemes the configuration cannot run — deferring ones on ring
    # hops or in a recorded async/SSP event stream — lose their rows
    # instead of crashing mid-command.
    sweeps = {}
    for sweep, schemes in _SWEEPS.items():
        if plan_scheme is not None and plan_scheme not in schemes:
            schemes += (plan_scheme,)
        sweeps[sweep] = tuple(
            name
            for name in schemes
            if scheme_incompatibility(config, make_compressor(name, seed=0)) is None
        )

    for command in commands:
        if command == "table1":
            _, text = table1(runner, sweeps["table1"])
            print(text)
        elif command == "table2":
            _, text = table2(runner)
            print(text)
        elif command in _FIGURE_LINKS:
            _emit_time_accuracy(runner, command, sweeps["overview"], sweeps["fast"])
        elif command == "fig7":
            loss_fig, acc_fig = figure7_curves(runner, sweeps["fig7"])
            print(loss_fig.text)
            print()
            print(acc_fig.text)
        elif command == "fig8":
            print(figure8_sparsity(runner).text)
        elif command == "fig9":
            print(figure9_compressed_size(runner, "3LC (s=1.00)").text)
            print()
            print(figure9_compressed_size(runner, "3LC (s=1.75)").text)
        print()

    inputs = input_memo.stats()
    print(
        f"input memo: {inputs['entries']} inputs {inputs['bytes'] / 2**20:.1f} MiB "
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
    if args.save:
        from repro.harness.results_io import save_results

        results = list(runner._cache.values())
        save_results(results, args.save)
        print(f"archived {len(results)} runs to {args.save}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
