"""``python -m repro.tuner``: search the wire-plan space, emit a plan.

Examples
--------
Smoke-scale search on the bench MLP (fast config)::

    python -m repro.tuner --fast --model mlp --budget 40 --seed 0 \\
        --out plan.json

The emitted ``repro.plan/v1`` artifact loads back into the harness::

    python -m repro.harness.cli fig9 --fast --plan plan.json
"""

from __future__ import annotations

import argparse
import time

from repro.harness.config import DEFAULT_CONFIG, FAST_CONFIG
from repro.network.bandwidth import LINKS
from repro.tuner.artifact import plan_to_dict, save_plan
from repro.tuner.evaluator import PlanEvaluator
from repro.tuner.search import STRATEGIES, tune
from repro.tuner.space import default_space
from repro.utils.logging import get_logger

logger = get_logger("repro.tuner")


def base_config(args) -> "ExperimentConfig":
    """The tuner's base config from CLI flags (seed threads everywhere)."""
    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    overrides: dict = {
        # One --seed reaches every stochastic layer: model init, dataset,
        # batch order, stochastic codecs — and (below) plan sampling.
        "model_seed": args.seed,
        "dataset_seed": args.seed,
        "cluster_seed": args.seed,
        "scheme_seed": args.seed,
        "model_family": args.model,
    }
    if args.workers is not None:
        overrides["num_workers"] = args.workers
    if args.steps is not None:
        overrides["standard_steps"] = args.steps
    return config.scaled(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuner",
        description="Wire-plan autotuner: minimize simulated step time "
        "over the joint plan space.",
    )
    parser.add_argument(
        "--fast", action="store_true", help="miniature base config"
    )
    parser.add_argument(
        "--model",
        choices=("resnet", "mlp"),
        default="mlp",
        help="model family of the base config (default: the bench MLP)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--steps", type=int, default=None, help="standard step budget"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=64,
        help="simulator evaluation budget (default 64)",
    )
    parser.add_argument(
        "--strategy",
        choices=tuple(sorted(STRATEGIES)),
        default="model",
        help="search strategy (default: the cost-model loop)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--link",
        choices=tuple(LINKS),
        default="10Mbps",
        help="objective link (default 10Mbps)",
    )
    parser.add_argument(
        "--accuracy-delta",
        type=float,
        default=0.05,
        help="feasibility bound: max accuracy drop vs the default plan",
    )
    parser.add_argument(
        "--out", default="plan.json", help="plan artifact output path"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = base_config(args)
    space = default_space(config)
    t0 = time.perf_counter()
    result = tune(
        space,
        PlanEvaluator(
            space, link=args.link, accuracy_floor_delta=args.accuracy_delta
        ),
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
    )
    wall = time.perf_counter() - t0
    artifact = plan_to_dict(result, space, link=args.link)
    save_plan(args.out, artifact)
    best = result.best
    print(
        f"best plan: {best.point.scheme} / {best.point.topology} "
        f"(priority={best.point.transmission_priority}, "
        f"fuse={best.point.fuse_small_tensors})"
    )
    print(
        f"step time @{args.link}: {best.step_seconds:.4g}s vs default "
        f"{result.default.step_seconds:.4g}s "
        f"({100 * result.improvement:+.1f}% improvement)"
    )
    print(
        f"{result.evaluations}/{result.budget} evaluations, "
        f"strategy={result.strategy}, seed={result.seed}, "
        f"wall {wall:.1f}s"
    )
    print(f"plan written to {args.out}")
    return 0
