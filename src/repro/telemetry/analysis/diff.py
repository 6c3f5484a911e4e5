"""Trace diffing: align two runs, localize regressions, name the fault.

Usage::

    python -m repro.telemetry.analysis.diff BASE.json OTHER.json \
        [--json OUT.json] [--threshold SECONDS] [--top N] \
        [--results ARCHIVE.json]

Both inputs are exported Chrome traces. Runs align by **identity**:
groups pair by name, step windows pair by step number, and each paired
window diffs bucket-by-bucket (via the same exact-partition attribution
the bottleneck report uses). A window whose time moved more than
``--threshold`` becomes a regression (or improvement) entry whose
largest-moving buckets localize *what* changed — and any outage track
active in that window names the flapped link directly.

``--results`` points at a ``--save`` archive of the regressed run;
its ``fault_summary`` rollups (flap / rejoin / degraded-step counts)
ride into the report so a "cross:rack1 stalled step 5" finding carries
the injected-churn context that explains it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.results_io import load_results
from repro.utils.format import format_table

from repro.telemetry.analysis.attribution import (
    RunAttribution,
    attribute_trace,
    load_chrome_rows,
    rows_from_chrome,
)

__all__ = ["diff_report", "diff_text", "main"]

DIFF_SCHEMA = "repro.trace-diff/v1"


def _attributed(data) -> tuple[dict[str, RunAttribution], dict]:
    """A trace's (or row list's) attributions and its outage intervals
    ``(start, end, route)``, both by group, from one read of its span rows."""
    rows = list(rows_from_chrome(data)) if isinstance(data, dict) else data
    outages: dict[str, list[tuple[float, float, str]]] = {}
    for group, track, _, start, end, _ in rows:
        if track.startswith("outage:"):
            outages.setdefault(group, []).append((start, end, track[len("outage:"):]))
    return {run.group: run for run in attribute_trace(rows)}, outages


def _bucket_moves(
    base: dict[str, float], other: dict[str, float]
) -> list[dict]:
    """Per-bucket deltas, largest absolute move first."""
    moves = []
    for bucket in sorted(set(base) | set(other)):
        before = base.get(bucket, 0.0)
        after = other.get(bucket, 0.0)
        delta = after - before
        if delta != 0.0:
            moves.append(
                {"bucket": bucket, "base": before, "other": after, "delta": delta}
            )
    moves.sort(key=lambda move: -abs(move["delta"]))
    return moves


def diff_report(
    base_data: dict | list,
    other_data: dict | list,
    *,
    threshold: float = 1e-9,
    fault_summary: dict | None = None,
) -> dict:
    """Structured diff of two Chrome traces or row lists (``repro.trace-diff/v1``)."""
    base_by, base_outages = _attributed(base_data)
    other_by, other_outages = _attributed(other_data)
    groups = []
    for name in sorted(set(base_by) | set(other_by)):
        base = base_by.get(name)
        other = other_by.get(name)
        if base is None or other is None:
            only_in = "base" if other is None else "other"
            groups.append({"group": name, "only_in": only_in})
            continue
        base_steps = {step.step: step for step in base.steps}
        other_steps = {step.step: step for step in other.steps}
        regressions = []
        for step in sorted(
            set(base_steps) | set(other_steps),
            key=lambda value: (value is None, value),
        ):
            before = base_steps.get(step)
            after = other_steps.get(step)
            if before is None or after is None:
                only_in = "base" if after is None else "other"
                regressions.append({"step": step, "only_in": only_in})
                continue
            delta = after.total_seconds - before.total_seconds
            if abs(delta) <= threshold:
                continue
            # An outage window overlapping this step's (regressed)
            # window names the faulted link outright.
            flapped = sorted(
                {
                    route
                    for start, end, route in other_outages.get(name, [])
                    if start < after.end and end > after.start
                }
            )
            regressions.append(
                {
                    "step": step,
                    "base_seconds": before.total_seconds,
                    "other_seconds": after.total_seconds,
                    "delta_seconds": delta,
                    "buckets": _bucket_moves(before.buckets, after.buckets),
                    "outage_routes": flapped,
                }
            )
        new_outage_routes = sorted(
            {route for _, _, route in other_outages.get(name, [])}
            - {route for _, _, route in base_outages.get(name, [])}
        )
        groups.append(
            {
                "group": name,
                "base_seconds": base.total_seconds,
                "other_seconds": other.total_seconds,
                "delta_seconds": other.total_seconds - base.total_seconds,
                "new_outage_routes": new_outage_routes,
                "regressions": regressions,
            }
        )
    report = {"schema": DIFF_SCHEMA, "groups": groups}
    if fault_summary is not None:
        report["fault_summary"] = fault_summary
    return report


def _fault_summaries_from_archive(path) -> dict | None:
    """Merge the ``fault_summary`` rollups of a ``--save`` archive."""
    summaries = [
        result.fault_summary for result in load_results(path) if result.fault_summary
    ]
    if not summaries:
        return None
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] = merged.get(key, 0) + value
            else:
                merged[key] = value
    return merged


def diff_text(report: dict, *, top: int = 5) -> str:
    """Human-readable rendering of a :func:`diff_report`."""
    sections = []
    for group in report.get("groups", []):
        name = group["group"]
        if "only_in" in group:
            sections.append(f"{name}: only present in {group['only_in']} trace")
            continue
        delta = group["delta_seconds"]
        header = (
            f"{name}: {group['base_seconds']:.6f} s -> "
            f"{group['other_seconds']:.6f} s ({delta:+.6f} s)"
        )
        if group["new_outage_routes"]:
            header += (
                "; new outages on " + ", ".join(group["new_outage_routes"])
            )
        rows = []
        for entry in group["regressions"][:top]:
            if "only_in" in entry:
                rows.append(
                    [str(entry["step"]), f"only in {entry['only_in']}", "", ""]
                )
                continue
            moves = entry["buckets"]
            blame = (
                f"{moves[0]['bucket']} {moves[0]['delta']:+.6f}" if moves else ""
            )
            if entry["outage_routes"]:
                blame += " [outage: " + ", ".join(entry["outage_routes"]) + "]"
            rows.append(
                [
                    str(entry["step"]),
                    f"{entry['base_seconds']:.6f}",
                    f"{entry['delta_seconds']:+.6f}",
                    blame,
                ]
            )
        if rows:
            sections.append(
                header
                + "\n"
                + format_table(
                    ["Step", "Base s", "Delta s", "Largest mover"], rows
                )
            )
        else:
            sections.append(header + " (no per-step moves above threshold)")
    fault = report.get("fault_summary")
    if fault:
        pairs = ", ".join(f"{key}={value}" for key, value in sorted(fault.items()))
        sections.append(f"Fault summary of the regressed run: {pairs}")
    if not sections:
        return "Trace diff: nothing to compare"
    return "\n\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE.json", type=Path)
    parser.add_argument("other", metavar="OTHER.json", type=Path)
    parser.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="also write the structured diff report",
    )
    parser.add_argument(
        "--threshold", type=float, default=1e-9, metavar="SECONDS",
        help="ignore per-step moves at or below this (default 1e-9)",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="regressed steps listed per group (default 5)",
    )
    parser.add_argument(
        "--results", metavar="ARCHIVE.json", default=None,
        help="--save archive of the regressed run; its fault_summary "
        "rollup rides into the report",
    )
    args = parser.parse_args(argv)
    try:
        fault_summary = None
        if args.results is not None:
            fault_summary = _fault_summaries_from_archive(args.results)
        base, other = load_chrome_rows(args.base), load_chrome_rows(args.other)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    report = diff_report(
        base, other, threshold=args.threshold, fault_summary=fault_summary
    )
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
    print(diff_text(report, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
