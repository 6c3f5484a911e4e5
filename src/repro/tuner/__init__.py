"""Wire-plan autotuner: cost-model search over the simulator oracle.

Layering (see ARCHITECTURE.md "Plan autotuner"):

* :mod:`repro.tuner.space` — the joint plan space (points, legality,
  canonical form, features);
* :mod:`repro.tuner.evaluator` — deterministic scoring through the
  replay cache;
* :mod:`repro.tuner.search` — random / cost-model strategies
  under one fixed-budget contract;
* :mod:`repro.tuner.artifact` — the ``repro.plan/v1`` JSON the harness
  loads back with ``--plan``.
"""

from repro.tuner.artifact import (
    PLAN_SCHEMA,
    apply_plan,
    load_plan,
    plan_to_dict,
    save_plan,
    validate_plan,
)
from repro.tuner.evaluator import PlanEvaluator, PlanScore
from repro.tuner.search import (
    STRATEGIES,
    TrajectoryPoint,
    TunerResult,
    cost_model_search,
    random_search,
    tune,
)
from repro.tuner.space import (
    PlanPoint,
    PlanSpace,
    boundary_candidates,
    default_space,
)

__all__ = [
    "PLAN_SCHEMA",
    "PlanEvaluator",
    "PlanPoint",
    "PlanScore",
    "PlanSpace",
    "STRATEGIES",
    "TrajectoryPoint",
    "TunerResult",
    "apply_plan",
    "boundary_candidates",
    "cost_model_search",
    "default_space",
    "load_plan",
    "plan_to_dict",
    "random_search",
    "save_plan",
    "tune",
    "validate_plan",
]
