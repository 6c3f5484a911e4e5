"""``repro-report``: ranked bottleneck report from an exported trace.

Usage::

    python -m repro.telemetry.analysis.report TRACE.json \
        [--json OUT.json] [--top N] [--check] [--results ARCHIVE.json]

Attributes every group of the trace (see
:mod:`repro.telemetry.analysis.attribution`), prints one ranked
bucket table per group, and optionally writes the
``repro.bottleneck-report/v1`` JSON artifact.

``--check`` turns the report into a gate: exit 1 unless every step
window's bucket sums reconcile with its simulated duration to 1e-6
(the partition guarantees this, so a failure means a simulator track
leaked spans outside its step or dropped a ``step`` arg — exactly the
regression CI wants to catch).

``--results`` cross-references a ``--save`` archive: simulated totals
recorded per link are printed next to the attributed totals, tying the
report back to the tables the harness emits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.results_io import load_results
from repro.telemetry.analysis.attribution import (
    attribute_trace,
    bottleneck_report,
    load_chrome_rows,
    report_text,
)

__all__ = ["main"]

RECONCILE_TOLERANCE = 1e-6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report", description=__doc__.splitlines()[0]
    )
    parser.add_argument("trace", metavar="TRACE.json", type=Path)
    parser.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="write the repro.bottleneck-report/v1 artifact",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="buckets listed per group (default 5)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every step's buckets reconcile with its "
        f"duration to {RECONCILE_TOLERANCE:g}",
    )
    parser.add_argument(
        "--results", metavar="ARCHIVE.json", default=None,
        help="--save archive to print simulated per-link totals alongside",
    )
    args = parser.parse_args(argv)
    try:
        archive = [] if args.results is None else load_results(args.results)
        rows = load_chrome_rows(args.trace)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    attributions = attribute_trace(rows)
    report = bottleneck_report(attributions, top=args.top)
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
    print(report_text(report, top=args.top))
    for result in archive:
        if result.total_seconds:
            pairs = ", ".join(
                f"{link}={seconds:.6f}s"
                for link, seconds in sorted(result.total_seconds.items())
            )
            print(f"archived totals [{result.scheme}]: {pairs}")
    if args.check:
        worst = max((a.max_reconciliation_error for a in attributions), default=0.0)
        if worst > RECONCILE_TOLERANCE:
            print(
                f"RECONCILIATION FAILED: max |sum(buckets) - window| = "
                f"{worst:g} > {RECONCILE_TOLERANCE:g}"
            )
            return 1
        print(
            f"reconciliation ok: max |sum(buckets) - window| = {worst:g} "
            f"across {sum(len(a.steps) for a in attributions)} windows"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
