"""Child-side measurement: one workload, one process, one result dict.

A workload is a fixed list of *parts*; a *pass* runs every part once, each
timed on its own. Passes repeat until ``--seconds`` of wall-clock has gone
by, and ``wall_s`` is the sum over parts of the fastest time seen for that
part (see :func:`part_seconds`) — the cost of the workload's fixed work. In
a traced run untraced and traced passes alternate, so the tracing overhead
is measured inside the same process and minute.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perf import metrics, spans

__all__ = [
    "Workload",
    "Checker",
    "PassRecord",
    "run_one",
    "load_workload",
    "part_seconds",
    "seeded",
]

PERF_DIR = Path(__file__).resolve().parent
#: The committed full run (``python3 perf/run.py --out perf/BASELINE.json``);
#: its ``golden_observed`` are the values the golden checks compare with.
BASELINE_PATH = PERF_DIR / "BASELINE.json"
#: Scratch for the archives/traces the workloads write; inside the
#: checkout (the contract forbids writing anywhere else) and gitignored.
WORK_ROOT = PERF_DIR / "_work"

#: (untraced, traced) minimum passes per scale and mode.
MIN_PASSES = {"full": 3, "mini": 1}
MIN_PASSES_TRACED = {"full": 2, "mini": 1}


def seeded(config, seed: int):
    """``config`` with every seed field set to the benchmark seed."""
    return config.scaled(
        model_seed=seed, dataset_seed=seed, cluster_seed=seed, scheme_seed=seed
    )


@dataclass
class PassRecord:
    """One pass: per-part seconds, the workload's own summary, spans."""

    times: dict[str, float]
    info: dict
    spans: dict[str, spans.SpanTotals] | None = None


class Checker:
    """Collects check outcomes; each one counts as an attempted operation."""

    def __init__(self, goldens: dict | None):
        #: Committed seed-0 values, or ``None`` when they do not apply
        #: (another seed or scale): golden checks are then not attempted.
        self.goldens = goldens
        self.results: list[tuple[str, bool, str]] = []
        #: Golden observations of this run (``--out`` keeps them).
        self.observed: dict = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), "" if ok else detail))

    def golden(self, key: str, value, *, rel_tol: float = 0.0) -> None:
        """Compare ``value`` with the committed golden (exact by default)."""
        self.observed[key] = value
        if self.goldens is None:
            return
        if key not in self.goldens:
            self.expect(f"golden:{key}", False, "no committed golden value")
            return
        want = self.goldens[key]
        if rel_tol:
            ok = math.isclose(value, want, rel_tol=rel_tol)
        else:
            ok = value == want
        self.expect(f"golden:{key}", ok, f"got {value!r}, committed {want!r}")

    def losses_finite(self, results) -> None:
        """No ``RunResult`` may carry a non-finite training or test loss."""
        self.expect(
            "losses-finite",
            all(
                math.isfinite(r.final_loss) and all(map(math.isfinite, r.loss_curve))
                for r in results
            ),
            "non-finite training or test loss",
        )

    def archive_round_trip(self, saved, loaded) -> None:
        """``load_results(save_results(x))`` must equal ``x`` field for field."""
        from repro.harness.results_io import run_result_to_dict

        self.expect(
            "archive-round-trip",
            [run_result_to_dict(r) for r in saved]
            == [run_result_to_dict(r) for r in loaded],
            "results archive did not round-trip",
        )


class Workload:
    """Base class; one subclass per module in ``perf/workloads``."""

    NAME = ""
    #: Part method names, run in order every pass.
    PARTS: tuple[str, ...] = ()
    #: Names of the invariant checks ``check`` must run at every scale.
    CHECKS: tuple[str, ...] = ()
    #: Scale name -> constants.
    SCALES: dict[str, dict] = {}

    def __init__(self, seed: int, scale: str, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.k = self.SCALES[scale]
        self.work_dir = work_dir
        #: Set for traced passes; workloads span the layer calls they make
        #: themselves (codec contexts, simulator replays) through ``span``.
        self.recorder: spans.SpanRecorder | None = None
        #: The latest pass's state, kept by ``end_pass`` for ``check``.
        self.last = None

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    # -- hooks -------------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs from the seed and warm code paths (``setup_s``)."""

    def new_pass(self):
        """Untimed per-pass preparation; returns the pass state."""
        return {}

    def run_part(self, state, part: str) -> None:
        """The timed body of one part (a method of that name by default)."""
        getattr(self, part)(state)

    def after_part(self, state, part: str) -> None:
        """Untimed hook after each part (output verification)."""

    def end_pass(self, state) -> dict:
        """Untimed; returns the pass summary kept in :class:`PassRecord`."""
        return {}

    def check(self, c: Checker, passes: list[PassRecord]) -> None:
        """Run every correctness check (outside the timed window)."""

    def operations(self) -> int:
        """Program operations one pass performs (for ``attempted``)."""
        return len(self.PARTS)

    def extras(self, part_s: dict[str, float], passes: list[PassRecord]) -> dict:
        """Workload-specific untraced metrics: name -> value."""
        return {}

    def layer_metrics(
        self, untraced: list[PassRecord], traced: list[PassRecord]
    ) -> dict[str, float]:
        """Per-layer metrics that are not plain span aggregates."""
        return {}

    # -- shared helpers ----------------------------------------------------

    def warm_up(self) -> None:
        """One tiny FAST-config run so BLAS and code paths are loaded."""
        from repro.harness.config import FAST_CONFIG
        from repro.harness.runner import ExperimentRunner
        from repro.netsim import SweepReplayCache

        config = FAST_CONFIG.scaled(
            standard_steps=4, eval_size=16, eval_points=1, sim_overlap=True
        )
        ExperimentRunner(config, SweepReplayCache()).run("3LC (s=1.00)")


def load_workload(name: str):
    if name not in metrics.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {list(metrics.WORKLOADS)}")
    return importlib.import_module(f"perf.workloads.{name}").WORKLOAD


def part_seconds(passes: list[PassRecord]) -> dict[str, float]:
    """Each part's time over the run's passes: the fastest observation.

    Disturbance on the shared reference box only ever adds time (a busy
    neighbour slows a pass by up to ~45 %, for seconds to a minute), so
    the minimum is the steadiest estimate of what the fixed work costs:
    over 60 ten-second runs the spread across runs was 11-29 % with the
    per-part minimum against 13-38 % with the per-part median.
    """
    parts = passes[0].times
    return {p: min(r.times[p] for r in passes) for p in parts}


def _run_pass(workload: Workload, traced: bool, failures: list[str]):
    """One pass; ``None`` (and a recorded failure) if a part raised."""
    recorder = spans.SpanRecorder() if traced else None
    undo: list = []
    missing: list[str] = []
    if recorder is not None:
        undo, missing = spans.install(recorder, metrics.SPAN_TARGETS)
    workload.recorder = recorder
    # Drop the previous pass's state and cyclic garbage now, untimed:
    # otherwise peak RSS depends on how many passes happened to fit the
    # window (two pass states alive at once, garbage piling up).
    workload.last = None
    gc.collect()
    try:
        state = workload.new_pass()
        times: dict[str, float] = {}
        for part in workload.PARTS:
            with workload.span("bench.part"):
                start = perf_counter()
                workload.run_part(state, part)
                times[part] = perf_counter() - start
            workload.after_part(state, part)
        info = workload.end_pass(state)
    except Exception:  # noqa: BLE001 - the run must report, not die
        failures.append(traceback.format_exc())
        return None, missing
    finally:
        workload.recorder = None
        spans.uninstall(undo)
    totals = recorder.aggregate() if recorder is not None else None
    return PassRecord(times, info, totals), missing


def _load_goldens(seed: int, scale: str) -> dict | None:
    if scale != "full" or not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data["golden_observed"] if data["seed"] == seed else None


def run_one(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    spawned_at: float | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up, measure and check one workload; returns the result dict."""
    started = spawned_at if spawned_at is not None else time.time()
    from repro.utils.logging import get_logger

    work_dir = WORK_ROOT / f"{name}-{time.time_ns()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Library INFO lines would interleave with the report; the level is
    # restored because the smoke test runs this inside the tier-1 process.
    logger = get_logger()
    level = logger.level
    logger.setLevel("WARNING")
    try:
        workload: Workload = load_workload(name)(seed, scale, work_dir)
        workload.setup()
        setup_s = time.time() - started
        if setup_only:
            return {"setup_s": setup_s}
        return _measure(workload, setup_s, seconds, trace)
    finally:
        logger.setLevel(level)
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def _measure(workload, setup_s, seconds, trace) -> dict:
    scale = workload.scale
    need = (MIN_PASSES_TRACED if trace else MIN_PASSES)[scale]
    untraced: list[PassRecord] = []
    traced: list[PassRecord] = []
    failures: list[str] = []
    missing: list[str] = []
    attempted_passes = 0
    window = perf_counter()
    while True:
        for is_traced in (False, True) if trace else (False,):
            record, miss = _run_pass(workload, is_traced, failures)
            attempted_passes += 1
            if record is not None:
                (traced if is_traced else untraced).append(record)
            if is_traced:
                missing = miss
        done = min(len(untraced), len(traced)) if trace else len(untraced)
        if attempted_passes >= 4 * need and done < need:
            break  # parts keep failing; report instead of looping forever
        if done >= need and perf_counter() - window >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu_s = time.process_time()

    checker = Checker(_load_goldens(workload.seed, scale))
    if untraced:
        try:
            workload.check(checker, untraced + traced)
        except Exception:  # noqa: BLE001 - a crashing check is a failed check
            checker.expect("checks-completed", False, traceback.format_exc())
    if len(traced) > 1:
        # Counts are taken at the span boundaries, so they must repeat
        # exactly from pass to pass — the property that lets a later issue
        # rest a claim on a count.
        counts = [{n: t.count for n, t in r.spans.items()} for r in traced]
        checker.expect(
            "span-counts-repeat",
            all(c == counts[0] for c in counts[1:]),
            f"span counts differ between traced passes: {counts}",
        )
    operations = workload.operations() * attempted_passes
    failed_ops = workload.operations() * len(failures)
    failed_checks = [(n, d) for n, ok, d in checker.results if not ok]
    attempted = operations + len(checker.results)
    failed = failed_ops + len(failed_checks)

    result = {
        "workload": workload.NAME,
        "seed": workload.seed,
        "scale": scale,
        "trace": bool(trace),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(untraced),
        "failures": [f"{n}: {d}" for n, d in failed_checks] + failures,
        "checks_run": [n for n, _, _ in checker.results],
        "golden_observed": checker.observed,
        "missing_span_targets": missing,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
    }
    if not untraced:
        return result

    part_s = part_seconds(untraced)
    wall_s = sum(part_s.values())
    result["parts"] = part_s
    result["pass_times"] = [r.times for r in untraced]
    values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    result["end_to_end"] = {
        n: {"value": values[n], "unit": u} for n, u, _, _ in metrics.END_TO_END
    }
    extra_units = {n: u for n, u, _, _, _ in metrics.WORKLOAD_METRICS}
    result["extras"] = {
        n: {"value": v, "unit": extra_units[n]}
        for n, v in workload.extras(part_s, untraced).items()
    }
    if not trace:
        return result

    layer = {"process.cpu_s": cpu_s}
    if traced:
        layer.update(_span_metrics(traced))
        layer.update(workload.layer_metrics(untraced, traced))
        layer["bench.trace_overhead_ratio"] = (
            sum(part_seconds(traced).values()) / wall_s
        )
        result["layer_shares"] = _layer_shares(traced)
        layer["bench.unattributed_share"] = result["layer_shares"]["bench"]
    unknown = sorted(set(layer) - {n for n, _, _ in metrics.PER_LAYER})
    if unknown:
        raise AssertionError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    # A metric whose span did not run on this workload reads 0; one whose
    # span target no longer resolves was not measured at all and must not
    # read as a perfect score, so it is marked absent instead.
    lost_spans = {span for span, dotted in metrics.SPAN_TARGETS if dotted in missing}
    result["absent_metrics"] = sorted(
        n for n, (span, _) in metrics.SPAN_METRICS.items() if span in lost_spans
    )
    layer.update(dict.fromkeys(result["absent_metrics"], metrics.ABSENT))
    result["per_layer"] = {
        n: {"value": float(layer.get(n, 0.0)), "unit": u}
        for n, u, _ in metrics.PER_LAYER
    }
    return result


def _layer_shares(traced: list[PassRecord]) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass (median pass).

    A span named ``<layer>.<what>`` belongs to ``<layer>``; ``bench`` is the
    root spans' own self time, i.e. time in no layer. Shares sum to 1.
    """
    shares: dict[str, list[float]] = {}
    for record in traced:
        total = record.spans["bench.part"].total
        by_layer: dict[str, float] = {}
        for name, totals in record.spans.items():
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + totals.self_time
        for layer, seconds in by_layer.items():
            shares.setdefault(layer, []).append(seconds / total)
    return {layer: statistics.median(values) for layer, values in sorted(shares.items())}


def _span_metrics(traced: list[PassRecord]) -> dict[str, float]:
    """Each plain span aggregate, fastest traced pass (as ``part_seconds``)."""
    out = {}
    for metric, (span_name, attr) in metrics.SPAN_METRICS.items():
        samples = [
            getattr(r.spans[span_name], attr) for r in traced if span_name in r.spans
        ]
        if samples:
            out[metric] = min(samples)
    return out


def main(argv: list[str]) -> int:
    """Child entry point: ``python perf/run.py --child <json-args>``."""
    args = json.loads(argv[0])
    result = run_one(args.pop("workload"), **args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
