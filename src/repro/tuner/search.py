"""Search strategies over the wire-plan space.

Two strategies share one fixed-budget contract (every call to the
scorer counts one simulator evaluation, the budget is never exceeded)
and one determinism contract (candidate sequences depend only on the
seed, never on timing):

* :func:`random_search` — the baseline: sample legal points, score in
  fixed-size rounds.
* :func:`cost_model_search` — the CAMAL-style active-learning loop: a
  ridge-regression cost model (plain ``numpy`` least squares, no
  external deps) fit on evaluated points proposes the next batch from a
  large sampled pool, the simulator labels them, the model refits.

Scoring goes through a ``scorer`` exposing ``evaluate_batch(points)``
and ``set_baseline(accuracy)`` — the
:class:`~repro.tuner.evaluator.PlanEvaluator` — in deterministic batches,
so two runs with one seed walk the identical evaluation sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.tuner.evaluator import PlanScore
from repro.tuner.space import PlanPoint, PlanSpace

__all__ = [
    "TrajectoryPoint",
    "TunerResult",
    "random_search",
    "cost_model_search",
    "tune",
    "STRATEGIES",
]

#: Fixed scoring round size: part of the evaluation sequence, so
#: changing it changes which plan a seed finds.
ROUND_SIZE = 8


@dataclass(frozen=True)
class TrajectoryPoint:
    """Best-so-far snapshot after one evaluation."""

    evaluations: int
    wall_seconds: float
    best_step_seconds: float


@dataclass(frozen=True)
class TunerResult:
    """Outcome of one tuner run."""

    best: PlanScore
    default: PlanScore
    trajectory: tuple[TrajectoryPoint, ...]
    evaluations: int
    strategy: str
    budget: int
    seed: int

    @property
    def improvement(self) -> float:
        """Fractional step-time reduction vs the default plan."""
        if self.default.step_seconds <= 0:
            return 0.0
        return 1.0 - self.best.step_seconds / self.default.step_seconds


class _Tracker:
    """Budget accounting plus the best-so-far trajectory.

    The deterministic tie-break is (objective, arrival index): a later
    point must be *strictly* better to displace the incumbent, so ties
    resolve identically in any arrival grouping.
    """

    def __init__(self, budget: int):
        self.budget = int(budget)
        self.evaluations = 0
        self.best: PlanScore | None = None
        self.trajectory: list[TrajectoryPoint] = []
        self._t0 = time.perf_counter()

    @property
    def remaining(self) -> int:
        return self.budget - self.evaluations

    def record(self, scores) -> None:
        for score in scores:
            self.evaluations += 1
            if self.best is None or score.objective < self.best.objective:
                self.best = score
                self.trajectory.append(
                    TrajectoryPoint(
                        evaluations=self.evaluations,
                        wall_seconds=time.perf_counter() - self._t0,
                        best_step_seconds=score.step_seconds,
                    )
                )


def _sample_unique(space: PlanSpace, rng, count: int, seen: set) -> list[PlanPoint]:
    """Up to ``count`` fresh legal canonical points (dedup vs ``seen``)."""
    out: list[PlanPoint] = []
    # Bounded retries: small spaces exhaust, and the sampler must not
    # spin forever once every legal point has been proposed.
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        point = space.sample(rng)
        if point in seen:
            continue
        seen.add(point)
        out.append(point)
    return out


def random_search(
    space: PlanSpace, scorer, *, budget: int, seed: int, default: PlanScore
) -> TunerResult:
    """Uniform sampling in fixed rounds — the comparison baseline."""
    rng = np.random.default_rng(seed)
    tracker = _Tracker(budget)
    tracker.record([default])
    seen: set[PlanPoint] = {default.point}
    while tracker.remaining > 0:
        batch = _sample_unique(
            space, rng, min(ROUND_SIZE, tracker.remaining), seen
        )
        if not batch:
            break
        tracker.record(scorer.evaluate_batch(batch))
    return TunerResult(
        best=tracker.best,
        default=default,
        trajectory=tuple(tracker.trajectory),
        evaluations=tracker.evaluations,
        strategy="random",
        budget=budget,
        seed=seed,
    )


def _fit_ridge(X: np.ndarray, y: np.ndarray, lam: float = 1e-3) -> np.ndarray:
    """Ridge weights via the normal equations (numpy only)."""
    d = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ y)


def cost_model_search(
    space: PlanSpace,
    scorer,
    *,
    budget: int,
    seed: int,
    default: PlanScore,
    pool_size: int = 256,
) -> TunerResult:
    """CAMAL-style active learning: model proposes, simulator labels.

    Seeded with two random rounds, then each iteration fits a ridge
    cost model on every labeled point, samples a fresh candidate pool,
    and sends the model's top picks to the simulator. Infeasible labels
    train the model with a 2x-worst penalty so it learns to avoid the
    region without distorting the feasible landscape.
    """
    rng = np.random.default_rng(seed)
    tracker = _Tracker(budget)
    tracker.record([default])
    seen: set[PlanPoint] = {default.point}
    labeled: list[PlanScore] = [default]

    init = _sample_unique(space, rng, min(2 * ROUND_SIZE, tracker.remaining), seen)
    for lo in range(0, len(init), ROUND_SIZE):
        got = scorer.evaluate_batch(init[lo : lo + ROUND_SIZE])
        tracker.record(got)
        labeled.extend(got)

    while tracker.remaining > 0:
        finite = [s.step_seconds for s in labeled if s.feasible]
        penalty = 2.0 * max(finite) if finite else 1.0
        y = np.array(
            [s.step_seconds if s.feasible else penalty for s in labeled]
        )
        X = space.encode([s.point for s in labeled])
        weights = _fit_ridge(X, y)
        # Propose from a fresh pool; `seen` dedups against everything
        # already labeled so the pool never re-spends budget.
        pool = _sample_unique(space, rng, pool_size, seen)
        if not pool:
            break
        preds = space.encode(pool) @ weights
        take = min(ROUND_SIZE, tracker.remaining, len(pool))
        picks = np.lexsort((np.arange(len(pool)), preds))[:take]
        # Points the model did not pick return to the sampling pool.
        chosen = [pool[i] for i in picks]
        for i, point in enumerate(pool):
            if i not in set(int(j) for j in picks):
                seen.discard(point)
        got = scorer.evaluate_batch(chosen)
        tracker.record(got)
        labeled.extend(got)
    return TunerResult(
        best=tracker.best,
        default=default,
        trajectory=tuple(tracker.trajectory),
        evaluations=tracker.evaluations,
        strategy="model",
        budget=budget,
        seed=seed,
    )


STRATEGIES = {
    "random": random_search,
    "model": cost_model_search,
}


def tune(
    space: PlanSpace,
    scorer,
    *,
    strategy: str = "model",
    budget: int = 64,
    seed: int = 0,
    default_scheme: str | None = None,
) -> TunerResult:
    """Score the default plan, anchor the accuracy bound, run a strategy.

    The default plan (the base config under registration order) is
    evaluated first — it both spends the budget's first evaluation and
    anchors the accuracy-feasibility floor every candidate is held to.
    """
    try:
        run = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of: {known}"
        ) from None
    if budget < 2:
        raise ValueError(f"budget must be >= 2, got {budget}")
    scheme = default_scheme or space.schemes[0]
    default_point = space.default_point(scheme)
    default = scorer.evaluate_batch([default_point])[0]
    scorer.set_baseline(default.accuracy)
    return run(space, scorer, budget=budget, seed=seed, default=default)
