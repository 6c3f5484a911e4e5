"""Search-strategy contracts: budget accounting, determinism, quality.

A fake scorer with a closed-form objective stands in for the simulator,
so these tests pin the *search* behavior (budget never exceeded, the
cost model exploits a learnable landscape) without training anything.
"""

import numpy as np
import pytest

from repro.harness.config import FAST_CONFIG
from repro.tuner.evaluator import PlanScore
from repro.tuner.search import (
    ROUND_SIZE,
    cost_model_search,
    random_search,
    tune,
)
from repro.tuner.space import default_space

BASE = FAST_CONFIG.scaled(model_family="mlp", num_workers=4)


class FakeScorer:
    """Deterministic closed-form objective; counts every evaluation."""

    def __init__(self, space, fn, accuracy=0.9):
        self.space = space
        self.fn = fn
        self.accuracy = accuracy
        self.evaluations = 0
        self.calls: list[int] = []

    def set_baseline(self, accuracy):
        pass

    def evaluate_batch(self, points):
        points = list(points)
        self.evaluations += len(points)
        self.calls.append(len(points))
        return [
            PlanScore(
                point=p,
                step_seconds=self.fn(p),
                accuracy=self.accuracy,
                steps=24,
            )
            for p in points
        ]


def linear_objective(space):
    """A landscape that is exactly linear in the space's features."""
    rng = np.random.default_rng(99)
    probe = space.encode([space.sample(rng) for _ in range(4)])
    weights = np.abs(np.random.default_rng(7).normal(size=probe.shape[1])) + 0.01

    def fn(point):
        return float(space.encode([point])[0] @ weights)

    return fn


@pytest.fixture(scope="module")
def space():
    return default_space(BASE)


def default_score(space, fn):
    point = space.default_point(space.schemes[0])
    return PlanScore(point=point, step_seconds=fn(point), accuracy=0.9, steps=24)


class TestBudgets:
    @pytest.mark.parametrize("strategy", [random_search, cost_model_search])
    def test_budget_never_exceeded(self, space, strategy):
        fn = linear_objective(space)
        for budget in (3, 9, 26):
            scorer = FakeScorer(space, fn)
            result = strategy(
                space, scorer, budget=budget, seed=1,
                default=default_score(space, fn),
            )
            # The default's evaluation is charged inside the budget; the
            # scorer itself is asked for at most budget - 1 more.
            assert result.evaluations <= budget
            assert scorer.evaluations <= budget - 1


class TestDeterminism:
    @pytest.mark.parametrize("strategy", [random_search, cost_model_search])
    def test_same_seed_same_result(self, space, strategy):
        fn = linear_objective(space)
        results = [
            strategy(
                space, FakeScorer(space, fn), budget=20, seed=5,
                default=default_score(space, fn),
            )
            for _ in range(2)
        ]
        assert results[0].best.point == results[1].best.point
        assert results[0].evaluations == results[1].evaluations
        assert [
            (t.evaluations, t.best_step_seconds) for t in results[0].trajectory
        ] == [
            (t.evaluations, t.best_step_seconds) for t in results[1].trajectory
        ]

    def test_trajectory_is_strictly_improving(self, space):
        fn = linear_objective(space)
        result = random_search(
            space, FakeScorer(space, fn), budget=25, seed=3,
            default=default_score(space, fn),
        )
        bests = [t.best_step_seconds for t in result.trajectory]
        assert bests == sorted(bests, reverse=True)
        assert len(set(bests)) == len(bests)


class TestQuality:
    def test_cost_model_at_least_matches_random(self, space):
        """On a linear landscape the ridge model is exact after its seed
        rounds; with the same budget it must find a plan no worse than
        random search's."""
        fn = linear_objective(space)
        budget = 4 * ROUND_SIZE
        model = cost_model_search(
            space, FakeScorer(space, fn), budget=budget, seed=11,
            default=default_score(space, fn),
        )
        rand = random_search(
            space, FakeScorer(space, fn), budget=budget, seed=11,
            default=default_score(space, fn),
        )
        assert model.best.objective <= rand.best.objective

    def test_infeasible_scores_cannot_win(self, space):
        fn = linear_objective(space)

        class Infeasible(FakeScorer):
            def evaluate_batch(self, points):
                scores = super().evaluate_batch(points)
                return [
                    PlanScore(
                        point=s.point, step_seconds=s.step_seconds / 100,
                        accuracy=0.0, steps=s.steps, feasible=False,
                        reason="accuracy floor",
                    )
                    for s in scores
                ]

        default = default_score(space, fn)
        result = random_search(
            space, Infeasible(space, fn), budget=20, seed=4, default=default
        )
        assert result.best.point == default.point


class TestTuneDriver:
    def test_unknown_strategy_and_tiny_budget(self, space):
        fn = linear_objective(space)
        with pytest.raises(ValueError, match="unknown strategy"):
            tune(space, FakeScorer(space, fn), strategy="anneal", budget=8)
        with pytest.raises(ValueError, match="budget"):
            tune(space, FakeScorer(space, fn), strategy="random", budget=1)

    def test_tune_scores_default_first(self, space):
        fn = linear_objective(space)
        scorer = FakeScorer(space, fn)
        result = tune(
            space, scorer, strategy="random", budget=10, seed=0
        )
        assert scorer.calls[0] == 1  # the default plan, alone
        assert result.default.point == space.default_point(space.schemes[0])
        assert result.evaluations <= 10
