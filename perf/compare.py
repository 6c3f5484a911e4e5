#!/usr/bin/env python3
"""Compare two ``perf/run.py --out`` result files, metric by metric.

    python3 perf/compare.py A.json B.json

One row per (metric, workload): both medians with min..max, the change in
the *worse* direction, and a verdict against the metric's bound —
``BENCHMARK.json``'s for the end-to-end metrics, ``perf/metrics.py``'s
``WORKLOAD_METRICS`` for the workload-specific gated ones:

``same``        B's median is within the bound of A's.
``worse``       B's median is worse than A's by more than the bound.
``better``      B's median is better than A's by more than the bound.
``unresolved``  either side's own spread exceeds the bound, so a difference
                of that size cannot be told from noise — unless every run of
                one side beats every run of the other.

Exits 1 if any row is ``worse`` (a raised ``failed_share`` counts), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf import metrics  # noqa: E402


def spread(samples: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more samples, the full range below that."""
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / abs(median)
    return (max(samples) - min(samples)) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)``; ``worse_by`` is B's median against A's as a
    share of A's, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not (all_worse or all_better):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def gated_metrics() -> list[tuple[str, str, str, float, str | None]]:
    """``(group, name, better, bound, only_workload)`` for every gated metric."""
    rows = [
        ("end_to_end", name, better, bound, None)
        for name, _, better, bound in metrics.END_TO_END
    ]
    rows += [
        ("workload_metrics", name, better, bound, workload)
        for name, _, better, bound, workload in metrics.WORKLOAD_METRICS
        if bound is not None
    ]
    return rows


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for group, name, better, bound, only in gated_metrics():
        for workload in a[group]:
            if only not in (None, workload) or workload not in b[group]:
                continue
            sa = a[group][workload][name]["samples"]
            sb = b[group][workload][name]["samples"]
            outcome, worse_by = verdict(sa, sb, better, bound)
            rows.append(
                dict(
                    metric=name, workload=workload, a=sa, b=sb,
                    unit=a[group][workload][name]["unit"],
                    bound=bound, worse_by=worse_by, verdict=outcome,
                )
            )
    for workload, ca in a["checks"].items():
        cb = b["checks"].get(workload)
        if cb is None:
            continue
        share_a = ca["failed"] / ca["attempted"]
        share_b = cb["failed"] / cb["attempted"]
        outcome = "worse" if share_b > share_a else "better" if share_b < share_a else "same"
        rows.append(
            dict(
                metric="failed_share", workload=workload, a=[share_a], b=[share_b],
                unit="share", bound=0.0, worse_by=share_b - share_a, verdict=outcome,
            )
        )
    return rows


def _cell(samples: list[float]) -> str:
    return f"{statistics.median(samples):.5g} [{min(samples):.5g}..{max(samples):.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b)
    print(f"{'metric':<16} {'workload':<16} {'A median [min..max]':<34} "
          f"{'B median [min..max]':<34} {'worse by':>9} {'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['metric']:<16} {row['workload']:<16} {_cell(row['a']):<34} "
            f"{_cell(row['b']):<34} {100 * row['worse_by']:>+8.2f}% "
            f"{100 * row['bound']:>6.1f}%  {row['verdict']}  ({row['unit']})"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
