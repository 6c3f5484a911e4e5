"""``traced_sweep``: the product's own observability path, telemetry on.

The ``hier4x2_bsp`` cell of ``exchange_matrix`` with ``telemetry=True`` for
two schemes, then everything a user does with the trace: Chrome-trace and
metric-snapshot export, load + schema validation (non-strict, as CI does),
critical-path attribution with the bottleneck report, and the results
archive. Telemetry changes must move this workload and nothing else.
"""

from __future__ import annotations

from time import perf_counter

from repro.harness import results_io
from repro.harness.runner import ExperimentRunner
from repro.netsim import SweepReplayCache
from repro.telemetry import export, validate
from repro.telemetry.analysis import attribution

from perf.bench import Workload, part_seconds
from perf.workloads.exchange_matrix import cell_config

SCHEMES = ("32-bit float", "3LC (s=1.00)")
_PART_OF = {"run_f32": SCHEMES[0], "run_3lc100": SCHEMES[1]}


class TracedSweep(Workload):
    NAME = "traced_sweep"
    PARTS = (
        "run_f32",
        "run_3lc100",
        "export_trace",
        "export_metrics",
        "load_validate",
        "attribute",
        "archive",
    )
    CHECKS = (
        "losses-finite",
        "trace-validates",
        "attribution-reconciles",
        "span-count-repeats",
        "archive-round-trip",
    )
    # The ISSUE sized this at 80 steps (~8 s a pass); see resnet_sweep for
    # why the pass is shorter here.
    SCALES = {"full": dict(steps=40), "mini": dict(steps=4)}

    def setup(self) -> None:
        self.plain = cell_config(self.seed, self.k["steps"], "hier4x2_bsp")
        self.config = self.plain.scaled(telemetry=True)
        self.warm_up()

    def new_pass(self):
        return {
            "runner": ExperimentRunner(self.config, SweepReplayCache()),
            "results": [],
            "trace": self.work_dir / "trace.json",
            "metrics": self.work_dir / "metrics.jsonl",
            "archive": self.work_dir / "traced_results.json",
        }

    def run_part(self, state, part: str) -> None:
        if part in _PART_OF:
            state["results"].append(state["runner"].run(_PART_OF[part]))
        else:
            getattr(self, part)(state)

    def export_trace(self, state) -> None:
        state["events"] = export.write_chrome_trace(
            state["trace"], state["runner"].telemetry_sessions
        )

    def export_metrics(self, state) -> None:
        export.write_metric_snapshots(
            state["metrics"], state["runner"].telemetry_sessions
        )

    def load_validate(self, state) -> None:
        state["data"] = attribution.load_chrome_trace(state["trace"])
        state["errors"] = validate.validate_chrome_trace(state["data"])

    def attribute(self, state) -> None:
        state["attributions"] = attribution.attribute_trace(state["data"])
        state["report"] = attribution.bottleneck_report(state["attributions"])

    def archive(self, state) -> None:
        results_io.save_results(state["results"], state["archive"])
        state["loaded"] = results_io.load_results(state["archive"])

    def end_pass(self, state) -> dict:
        self.last = state
        return {
            "events": state["events"],
            "trace_bytes": state["trace"].stat().st_size,
        }

    def operations(self) -> int:
        return len(self.PARTS) + 3  # load + validate, attribute + report, save + load

    def check(self, c, passes) -> None:
        state = self.last
        c.losses_finite(state["results"])
        c.expect(
            "trace-validates",
            not state["errors"],
            f"{len(state['errors'])} schema errors, first: {state['errors'][:1]}",
        )
        worst = max(a.max_reconciliation_error for a in state["attributions"])
        c.expect(
            "attribution-reconciles",
            worst <= 1e-6 and len(state["report"]["sessions"]) == len(state["attributions"]),
            f"attribution off by {worst!r}",
        )
        events = passes[0].info["events"]
        c.expect(
            "span-count-repeats",
            all(record.info["events"] == events for record in passes),
            "exported event count differs between passes",
        )
        c.golden("traced_sweep.trace_events", events)
        c.archive_round_trip(state["results"], state["loaded"])

    def extras(self, part_s, passes) -> dict:
        return {"spans_per_s": passes[0].info["events"] / sum(part_s.values())}

    def layer_metrics(self, untraced, traced) -> dict:
        part_s = part_seconds(untraced)
        # The same run with telemetry off, twice: what observation costs.
        plain = []
        for _ in range(2):
            runner = ExperimentRunner(self.plain, SweepReplayCache())
            start = perf_counter()
            runner.run(SCHEMES[1])
            plain.append(perf_counter() - start)
        # Informational: strict mode reports out-of-order ``ts`` on every
        # ``sim:*`` track of a clean trace (README, "foot-guns").
        strict = validate.validate_chrome_trace(self.last["data"], strict=True)
        events = untraced[0].info["events"]
        return {
            "telemetry.run_overhead_ratio": part_s["run_3lc100"] / min(plain),
            "telemetry.spans": float(events),
            "telemetry.trace_mb": untraced[0].info["trace_bytes"] / 1e6,
            "telemetry.spans_per_s": events / sum(part_s.values()),
            "telemetry.strict_errors": float(len(strict)),
        }


WORKLOAD = TracedSweep
