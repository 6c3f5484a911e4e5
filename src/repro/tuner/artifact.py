"""The ``repro.plan/v1`` artifact: winning plans as loadable JSON.

A tuner run's outcome is a plan, not a table — so the winning point is
emitted in a small versioned schema the harness CLI loads back with
``--plan <file>``. The artifact carries no timestamps or wall-clock
numbers: two same-seed tuner runs write byte-identical files (the
reproducibility guarantee asserted in ``tests/tuner``); trajectory
wall-clock lives in ``BENCH_tuner.json`` instead.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.config import ExperimentConfig
from repro.tuner.space import PLAN_FIELDS, PlanPoint

__all__ = [
    "PLAN_SCHEMA",
    "plan_to_dict",
    "save_plan",
    "load_plan",
    "validate_plan",
    "apply_plan",
]

PLAN_SCHEMA = "repro.plan/v1"

#: JSON type(s) a plan field of each Python type is written as.
_JSON_TYPES = {str: str, int: int, float: (int, float), bool: bool, tuple: list}


def plan_to_dict(result, space, *, link: str = "10Mbps") -> dict:
    """Serialize a :class:`~repro.tuner.search.TunerResult` as a plan.

    ``objective`` records what was optimized (link, both step times, the
    fractional improvement) and ``search`` how (strategy, budget, spent
    evaluations, seed) — enough provenance to rerun the search, nothing
    run-dependent.
    """
    best, default = result.best, result.default
    return {
        "schema": PLAN_SCHEMA,
        "plan": best.point.as_dict(),
        "objective": {
            "link": link,
            "mean_step_seconds": best.step_seconds,
            "default_step_seconds": default.step_seconds,
            "improvement": result.improvement,
        },
        "accuracy": {
            "plan": best.accuracy,
            "default": default.accuracy,
        },
        "search": {
            "strategy": result.strategy,
            "budget": result.budget,
            "evaluations": result.evaluations,
            "seed": result.seed,
        },
        "base": {
            "num_workers": space.base.num_workers,
            "standard_steps": space.base.standard_steps,
            "model_family": space.base.model_family,
        },
    }


def validate_plan(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed v1 plan."""
    if not isinstance(data, dict):
        raise ValueError("plan artifact must be a JSON object")
    schema = data.get("schema")
    if schema != PLAN_SCHEMA:
        raise ValueError(
            f"unsupported plan schema {schema!r}; expected {PLAN_SCHEMA!r}"
        )
    plan = data.get("plan")
    if not isinstance(plan, dict):
        raise ValueError("plan artifact is missing the 'plan' object")
    for key, kind in PLAN_FIELDS.items():
        if key not in plan:
            raise ValueError(f"plan is missing required field {key!r}")
        value = plan[key]
        if isinstance(value, bool) and kind is int:
            raise ValueError(f"plan field {key!r} must be an integer")
        if not isinstance(value, _JSON_TYPES[kind]):
            raise ValueError(
                f"plan field {key!r} has type {type(value).__name__}"
            )
        if kind is tuple and not all(isinstance(n, str) for n in value):
            raise ValueError(f"{key} must be a list of names")
    for section in ("objective", "search"):
        if not isinstance(data.get(section), dict):
            raise ValueError(f"plan artifact is missing {section!r}")


def save_plan(path, data: dict) -> None:
    """Validate and write (sorted keys: same plan -> same bytes)."""
    validate_plan(data)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_plan(path) -> dict:
    """Read and validate a plan; malformed JSON (truncated included) or a
    malformed plan raises ``ValueError`` naming the path."""
    try:
        data = json.loads(Path(path).read_text())
        validate_plan(data)
    except ValueError as error:  # a json.JSONDecodeError is one
        raise ValueError(f"{path}: not a plan artifact: {error}") from None
    return data


def apply_plan(config: ExperimentConfig, data: dict, **overrides):
    """Overlay a loaded plan onto a config.

    Returns ``(config, scheme)``: the plan's fields override the config's
    (the plan wins — it is the tuned object), ``sim_overlap`` is forced
    on (plans are simulator-scored; analytic timing would misrepresent
    them) and so is the modeled clock they were scored under (a re-score
    reproduces ``objective.mean_step_seconds`` exactly), and the plan's
    scheme comes back for the caller to run. ``overrides`` are further
    config fields set in the same construction (a worker count or a fault
    the plan needs to be legal); where both name a field the plan wins.
    ``ExperimentConfig`` validation applies, so a plan incompatible with
    the config's cluster shape fails loudly here.
    """
    validate_plan(data)
    point = PlanPoint.from_dict(data["plan"])
    return config.scaled(**(overrides | point.config_overrides())), point.scheme
