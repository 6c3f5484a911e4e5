#!/usr/bin/env python3
"""The repo benchmark driver.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in child processes — one at a time, BLAS pinned to
one thread — prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Full mode (no ``--workload``) runs all six workloads round-robin for
``REPEATS`` untraced repeats plus one traced run each, prints the medians
and writes everything to ``--out`` for ``perf/compare.py``. The committed
``perf/BASELINE.json`` is such a file; its ``golden_observed`` are the
values the seed-0 golden checks compare with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
# The driver runs this file with no PYTHONPATH: the checkout root makes
# ``perf`` importable, ``src`` the program under test.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import metrics  # noqa: E402

#: Two BLAS threads on the 2-core reference box double CPU time with no
#: wall-clock gain and widen run-to-run spread, so children get one.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT_S = 170
SCHEMA = "repro.perf/v1"
#: Full mode: untraced repeats per workload (median, min and max reported).
REPEATS = 3
#: Child starts whose median is ``setup_s``, in both modes. Five, so that
#: two starts hit by a busy second (seen with three: 0.56 s against 0.41 s)
#: do not move the median.
SETUP_REPEATS = 5


def _spawn(workload: str, **kwargs) -> dict:
    """Run one child to completion and return the dict it printed."""
    payload = dict(kwargs, workload=workload, spawned_at=time.time())
    proc = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--child", json.dumps(payload)],
        env={**os.environ, **CHILD_ENV},
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perf: child for {workload!r} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(workload: str, *, seed: int, seconds: float, trace: bool) -> dict:
    """One measurement: set-up children, then the measuring one.

    ``setup_s`` is the median over ``SETUP_REPEATS`` child starts (process
    spawn to first timed instruction); the measuring child is the last, so
    it does not pay a cold file cache the others would hide. A traced run
    reports no ``setup_s`` and so starts only the measuring child.
    """
    setups = [
        _spawn(workload, seed=seed, seconds=0, trace=False, setup_only=True)["setup_s"]
        for _ in range(0 if trace else SETUP_REPEATS - 1)
    ]
    result = _spawn(workload, seed=seed, seconds=seconds, trace=trace)
    setups.append(result["setup_s"])
    if "end_to_end" in result:
        result["end_to_end"]["setup_s"]["value"] = statistics.median(setups)
    return result


def contract_metrics(result: dict) -> dict:
    """What the contract's JSON line carries: per-layer when traced.

    A per-layer metric in ``absent_metrics`` (its span target no longer
    resolves) is carried as ``metrics.ABSENT``: the contract wants a number
    for every metric, and -1 cannot be read as a measurement.
    """
    return result.get("per_layer" if result["trace"] else "end_to_end", {})


def report(result: dict) -> None:
    """Every metric by name with its unit, then checks and failures."""
    name = result["workload"]
    mode = "traced" if result["trace"] else "untraced"
    passes = result["passes"]
    print(
        f"== {name} seed={result['seed']} {mode} "
        f"({passes['untraced']} untraced + {passes['traced']} traced passes)",
    )
    absent = result.get("absent_metrics", ())
    for group in ("end_to_end", "extras", "per_layer"):
        for metric, entry in result.get(group, {}).items():
            if metric in absent:
                print(f"{name}.{metric} = absent (span target missing)")
            else:
                print(f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}")
    for part, seconds in result.get("parts", {}).items():
        print(f"{name}.part.{part} = {seconds:.6g} s")
    for layer, value in result.get("layer_shares", {}).items():
        print(f"{name}.share.{layer} = {100 * value:.2f} %")
    share = result["failed"] / result["attempted"]
    print(
        f"{name}.failed_share = {share:.6g} "
        f"({result['failed']} failed / {result['attempted']} attempted; "
        f"{len(result['checks_run'])} checks)",
    )
    if not result["trace"]:  # a traced run already lists it per layer
        print(f"{name}.process.cpu_s = {result['cpu_s']:.6g} s")
    if result["missing_span_targets"]:
        print(f"{name}.missing_span_targets = {result['missing_span_targets']}")
    for failure in result["failures"]:
        print(f"FAILED {name}: {failure}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result),
        }
    )


def _summary(samples: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "samples": samples,
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
    }


def build_document(untraced, traced, *, seed, seconds) -> dict:
    """The ``--out`` result document from per-workload run results."""
    import numpy

    names = list(untraced)
    repeats = len(untraced[names[0]])
    document = {
        "schema": SCHEMA,
        "recorded": time.strftime("%Y-%m-%d"),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "end_to_end": {},
        "workload_metrics": {},
        "per_layer": {},
        "layer_shares": {},
        "checks": {},
        "missing_span_targets": sorted(
            {t for r in traced.values() for t in r["missing_span_targets"]}
        ),
        "golden_observed": {},
    }
    for name in names:
        runs = untraced[name]
        document["end_to_end"][name] = {
            metric: _summary([r["end_to_end"][metric]["value"] for r in runs], unit)
            for metric, unit, _, _ in metrics.END_TO_END
        }
        document["workload_metrics"][name] = {
            metric: _summary(
                [r["extras"][metric]["value"] for r in runs],
                runs[0]["extras"][metric]["unit"],
            )
            for metric in runs[0]["extras"]
        }
        absent = traced[name].get("absent_metrics", ())
        document["per_layer"][name] = {
            metric: entry
            for metric, entry in traced[name]["per_layer"].items()
            if metric not in absent
        }
        document["layer_shares"][name] = traced[name].get("layer_shares", {})
        every = runs + [traced[name]]
        document["checks"][name] = {
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "failures": [f for r in every for f in r["failures"]],
        }
        document["golden_observed"].update(runs[0]["golden_observed"])
    return document


def full_run(args) -> int:
    """All workloads: ``REPEATS`` untraced rounds, then one traced run each."""
    names = list(metrics.WORKLOADS)
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(REPEATS):
        for name in names:  # round-robin, so drift hits every workload alike
            result = measure(name, seed=args.seed, seconds=args.seconds, trace=False)
            report(result)
            untraced[name].append(result)
    traced = {}
    for name in names:
        traced[name] = measure(name, seed=args.seed, seconds=args.seconds, trace=True)
        report(traced[name])

    document = build_document(untraced, traced, seed=args.seed, seconds=args.seconds)
    print("== medians over", REPEATS, "untraced repeats")
    for name in names:
        for group in ("end_to_end", "workload_metrics"):
            for metric, entry in document[group][name].items():
                print(
                    f"{name}.{metric} = {entry['median']:.6g} {entry['unit']} "
                    f"(min {entry['min']:.6g}, max {entry['max']:.6g})"
                )
        checks = document["checks"][name]
        print(
            f"{name}.failed_share = {checks['failed'] / checks['attempted']:.6g} "
            f"({checks['failed']} / {checks['attempted']})"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if any(c["failed"] for c in document["checks"].values()) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        from perf import bench

        return bench.main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="full mode: result JSON for compare.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perf: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return full_run(args)
    result = measure(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    report(result)
    if not contract_metrics(result):
        print("perf: no pass completed; no result", file=sys.stderr)
        return 1
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
