"""Deterministic plan scoring through the simulator and replay cache.

:class:`PlanEvaluator` turns one :class:`~repro.tuner.space.PlanPoint`
into a simulated mean step time at the target link, with two properties
the search layers above depend on:

* **Cache reuse.** Every evaluation goes through one shared
  :class:`~repro.netsim.SweepReplayCache`: plan points differing only in
  simulation-side knobs (cross-rack bandwidth, transmission priority,
  time model) share a recording. A re-scored point reuses its config's
  runner and hits that runner's own result cache; a point whose only new
  knob is a simulation-only one hits its recording, and its replays run
  fresh — one training run is scored across many candidate plans, each
  paying only its replays.
* **Bit-determinism.** Measured seconds (wall-clock compute and codec
  timings, a profiled backward timeline) would make same-seed tuner runs
  differ, so ``PlanSpace.apply`` asks every candidate config for the
  *modeled* clock (:mod:`repro.exchange.clock`): the engine records
  constant compute and per-element codec seconds, and the runner models
  the timeline over one profiling pass shared by the whole search.
  Nothing here filters a recording or seeds the cache. Training math,
  byte counts and accuracy are already seed-deterministic for BSP, so two
  same-seed tuner runs produce identical scores — the reproducibility
  guarantee asserted in ``tests/tuner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.harness.config import ExperimentConfig

# ``profile_backward`` is not called here: ``perf/metrics.py`` (frozen for
# this PR) still names ``repro.tuner.evaluator.profile_backward`` as a span
# target and reads an unresolvable one as a lost metric.
from repro.harness.runner import ExperimentRunner, profile_backward  # noqa: F401
from repro.netsim import SweepReplayCache
from repro.tuner.space import PlanPoint, PlanSpace

__all__ = ["PlanScore", "PlanEvaluator"]


@dataclass(frozen=True)
class PlanScore:
    """One scored plan point."""

    point: PlanPoint
    step_seconds: float
    accuracy: float
    steps: int
    feasible: bool = True
    reason: str | None = None

    @property
    def objective(self) -> float:
        """Minimized by every search strategy; infeasible plans sort last."""
        return self.step_seconds if self.feasible else math.inf


class PlanEvaluator:
    """Score plan points deterministically against one base config.

    Parameters
    ----------
    space:
        The plan space (supplies ``apply`` and the base config).
    link:
        Objective link name (a :data:`repro.network.bandwidth.LINKS` key);
        the objective is the simulated mean step seconds at this link.
    accuracy_floor_delta:
        Feasibility bound: a plan whose final accuracy falls more than
        this below the baseline accuracy is scored infeasible (lossy
        plans must not buy speed with model quality). The bound holds
        from :meth:`set_baseline` on (the driver scores the default plan
        first and anchors on it).

    Every evaluation shares one private replay cache, ``cache``.
    """

    def __init__(
        self,
        space: PlanSpace,
        *,
        link: str = "10Mbps",
        accuracy_floor_delta: float = 0.05,
    ):
        self.space = space
        self.link = link
        self.accuracy_floor_delta = float(accuracy_floor_delta)
        self.baseline_accuracy: float | None = None
        self.cache = SweepReplayCache()
        self._runners: dict[ExperimentConfig, ExperimentRunner] = {}
        #: Simulator evaluations performed (the search budget's unit).
        self.evaluations = 0

    def set_baseline(self, accuracy: float) -> None:
        self.baseline_accuracy = float(accuracy)

    def evaluate(self, point: PlanPoint) -> PlanScore:
        """Train-or-replay the point and score it at the objective link."""
        config = self.space.apply(point)
        runner = self._runners.get(config)
        if runner is None:
            runner = ExperimentRunner(config, replay_cache=self.cache)
            self._runners[config] = runner
        result = runner.run(point.scheme)
        self.evaluations += 1
        step_seconds = result.mean_step_seconds[self.link]
        accuracy = result.final_accuracy
        feasible = True
        reason = None
        if (
            self.baseline_accuracy is not None
            and accuracy < self.baseline_accuracy - self.accuracy_floor_delta
        ):
            feasible = False
            reason = (
                f"accuracy {accuracy:.4f} fell more than "
                f"{self.accuracy_floor_delta:.3f} below the baseline "
                f"{self.baseline_accuracy:.4f}"
            )
        return PlanScore(
            point=point,
            step_seconds=step_seconds,
            accuracy=accuracy,
            steps=result.steps,
            feasible=feasible,
            reason=reason,
        )

    def evaluate_batch(self, points) -> list[PlanScore]:
        """Score ``points`` in order."""
        return [self.evaluate(p) for p in points]
