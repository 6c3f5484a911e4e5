#!/usr/bin/env python
"""Wire-plan autotuner trajectory: search quality.

The tuner's claim is that it finds plans the default configuration leaves
on the table. This benchmark runs the cost-model search on the bench MLP
under the hierarchical base config (2 racks x 2 workers, scarce
cross-rack uplink at 10 Mbps) and records the best-so-far trajectory
(simulated step time vs evaluations vs wall-clock) into
``BENCH_tuner.json``.

``--check`` asserts the acceptance criterion directly: the found plan's
simulated step time is >= 10% below the default plan's, within <= 200
evaluations.

Run:  python benchmarks/bench_tuner.py [--smoke] [--check] [--json PATH]
                                       [--budget N] [--seed N]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.harness.config import FAST_CONFIG
from repro.tuner.artifact import plan_to_dict, save_plan
from repro.tuner.evaluator import PlanEvaluator
from repro.tuner.search import tune
from repro.tuner.space import default_space
from repro.utils.format import format_table

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_tuner.json"

#: Acceptance: the tuned plan beats the default by at least this margin.
TARGET_IMPROVEMENT = 0.10

#: Acceptance: within at most this many simulator evaluations.
MAX_EVALUATIONS = 200

LINK = "10Mbps"
STRATEGY = "model"


def bench_base_config(seed: int):
    """The bench MLP under the hierarchical base config.

    Hier with a scarce cross-rack uplink is where the default plan has
    the most headroom — the scenario the autotuner exists for. One seed
    reaches every stochastic layer (and, separately, plan sampling).
    """
    return FAST_CONFIG.scaled(
        model_family="mlp",
        num_workers=4,
        topology="hier",
        racks=2,
        rack_size=2,
        cross_bw_fraction=0.1,
        model_seed=seed,
        dataset_seed=seed,
        cluster_seed=seed,
        scheme_seed=seed,
    )


def run_tuner(config, *, budget: int, seed: int):
    """One tuner run; returns (result, artifact_dict, wall_seconds)."""
    space = default_space(config)
    t0 = time.perf_counter()
    result = tune(
        space,
        PlanEvaluator(space, link=LINK),
        strategy=STRATEGY,
        budget=budget,
        seed=seed,
    )
    wall = time.perf_counter() - t0
    return result, plan_to_dict(result, space, link=LINK), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI scale: small search budget"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the acceptance criteria (improvement, budget)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the trajectory (the committed baseline is "
        "benchmarks/BENCH_tuner.json)",
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="evaluation budget override"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--plan-out", metavar="PATH", default=None,
        help="also write the winning repro.plan/v1 artifact to PATH",
    )
    args = parser.parse_args(argv)

    budget = args.budget if args.budget is not None else (24 if args.smoke else 96)
    budget = min(budget, MAX_EVALUATIONS)
    config = bench_base_config(args.seed)

    result, artifact, wall = run_tuner(config, budget=budget, seed=args.seed)
    best = result.best
    table = format_table(
        ["evals", "wall s", "best step s", "improvement"],
        [
            [
                str(p.evaluations),
                f"{p.wall_seconds:.2f}",
                f"{p.best_step_seconds:.4g}",
                f"{100 * (1 - p.best_step_seconds / result.default.step_seconds):+.1f}%",
            ]
            for p in result.trajectory
        ],
    )
    mode = "smoke" if args.smoke else "full"
    print(f"=== wire-plan autotuner trajectory ({mode}, {STRATEGY}) ===")
    print(table)
    print(
        f"default plan: {result.default.point.scheme} / "
        f"{result.default.point.topology} -> "
        f"{result.default.step_seconds:.4g} s/step @{LINK}"
    )
    print(
        f"best plan:    {best.point.scheme} / {best.point.topology} "
        f"(priority={best.point.transmission_priority}, "
        f"fuse={best.point.fuse_small_tensors}) -> {best.step_seconds:.4g} s/step "
        f"({100 * result.improvement:+.1f}%)"
    )
    print(f"{result.evaluations}/{budget} evaluations; wall {wall:.1f}s")

    payload = {
        "benchmark": "tuner",
        "mode": mode,
        "strategy": STRATEGY,
        "budget": budget,
        "seed": args.seed,
        "link": LINK,
        "evaluations": result.evaluations,
        "default_step_seconds": result.default.step_seconds,
        "best_step_seconds": best.step_seconds,
        "improvement": result.improvement,
        "best_plan": best.point.as_dict(),
        "trajectory": [
            {
                "evaluations": p.evaluations,
                "wall_seconds": p.wall_seconds,
                "best_step_seconds": p.best_step_seconds,
            }
            for p in result.trajectory
        ],
        "wall_seconds": wall,
    }
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.plan_out is not None:
        save_plan(args.plan_out, artifact)
        print(f"wrote plan artifact to {args.plan_out}")

    if args.check:
        failures = []
        if result.evaluations > MAX_EVALUATIONS:
            failures.append(
                f"{result.evaluations} evaluations > {MAX_EVALUATIONS} cap"
            )
        if result.improvement < TARGET_IMPROVEMENT:
            failures.append(
                f"improvement {100 * result.improvement:.1f}% < "
                f"{100 * TARGET_IMPROVEMENT:g}% target"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("acceptance checks: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
