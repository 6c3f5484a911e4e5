"""Deterministic plan scoring through the simulator and replay cache.

:class:`PlanEvaluator` turns one :class:`~repro.tuner.space.PlanPoint`
into a simulated mean step time at the target link, with two properties
the search layers above depend on:

* **Cache reuse.** Every evaluation goes through one shared
  :class:`~repro.netsim.SweepReplayCache`: plan points differing only in
  simulation-side knobs (cross-rack bandwidth, transmission priority,
  time model) share a recording, and re-scored points hit the simulation
  level outright — one training run is scored across hundreds of
  candidate plans with only timeline-level recomputation.
* **Bit-determinism.** The engine records *measured* seconds (wall-clock
  compute and codec timings) and the runner profiles a *measured*
  backward timeline; both would make same-seed tuner runs differ. The
  evaluator therefore (a) pre-seeds a deterministic synthetic timeline
  under each candidate's canonical cache key, and (b) installs
  :func:`normalize_recording` as the runner's ``recording_filter``,
  replacing every recorded seconds field with a modeled value (constant
  compute, per-element codec rate). Training math, byte counts, and
  accuracy are already seed-deterministic for BSP, so two same-seed
  tuner runs produce identical scores — the satellite reproducibility
  guarantee, asserted in ``tests/tuner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.harness.config import ExperimentConfig
from repro.harness.runner import ExperimentRunner
from repro.netsim import RecordedTraining, SweepReplayCache
from repro.nn.stats import BackwardTimeline, LayerTiming, profile_backward
from repro.tuner.space import PlanPoint, PlanSpace

__all__ = [
    "PlanScore",
    "PlanEvaluator",
    "normalize_recording",
    "deterministic_timeline",
]

#: Modeled codec throughput (seconds per element) substituted for the
#: engine's wall-clock codec measurements.
CODEC_RATE = 5e-9
#: Modeled per-step compute time (seconds) substituted for measured
#: backward wall-clock.
COMPUTE_SECONDS = 0.05
#: Synthetic per-layer timing: a floor plus a per-element rate, so larger
#: layers take longer and the timeline's ready fractions stay non-trivial.
_LAYER_FLOOR = 1e-6
_LAYER_RATE = 1e-9


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


def normalize_recording(recording: RecordedTraining) -> RecordedTraining:
    """Replace the recording's measured seconds with modeled values.

    Byte counts, record structure, evaluation metrics, and loss curves
    are untouched — only the wall-clock-derived seconds fields become
    deterministic functions of the element counts they correspond to.
    """
    steps = tuple(
        _normalize_step(st) for st in recording.transmissions
    )
    updates = tuple(
        _normalize_update(up) for up in recording.update_events
    )
    return replace(recording, transmissions=steps, update_events=updates)


def _phase_elements(records) -> tuple[int, int]:
    push = pull = 0
    for r in records:
        if r.phase == "pull":
            pull += r.elements
        else:
            push += r.elements
    return push, pull


def _normalize_step(st):
    push, pull = _phase_elements(st.records)
    return replace(
        st,
        compute_seconds=COMPUTE_SECONDS,
        push_compress_seconds=CODEC_RATE * push,
        server_decompress_seconds=CODEC_RATE * push,
        server_compress_seconds=CODEC_RATE * pull,
        pull_decompress_seconds=CODEC_RATE * pull,
    )


def _normalize_update(up):
    push, pull = _phase_elements(up.records)
    return replace(
        up,
        clock_seconds=COMPUTE_SECONDS * (up.local_step + 1),
        compute_seconds=COMPUTE_SECONDS,
        push_compress_seconds=CODEC_RATE * push,
        server_seconds=CODEC_RATE * push,
        pull_compress_seconds=CODEC_RATE * pull,
        pull_decompress_seconds=CODEC_RATE * pull,
    )


def deterministic_timeline(config: ExperimentConfig) -> BackwardTimeline:
    """Synthetic backward timeline with modeled per-layer seconds.

    The layer *structure* (labels, parameter ownership, backward order)
    comes from one profiling pass — it is deterministic, asserted stable
    by :func:`~repro.nn.stats.profile_backward` itself — while each
    measured duration is replaced by a floor-plus-rate function of the
    layer's parameter element count, so ready fractions (and therefore
    every simulated schedule) are identical across runs and processes.
    """
    model = config.model_factory()()
    dataset = config.dataset()
    images, labels = dataset.train_shard(0, config.batch_size)
    profiled = profile_backward(model, images, labels, repeats=1)
    sizes = {p.name: p.size for p in model.parameters()}
    layers = tuple(
        LayerTiming(
            layer.label,
            _LAYER_FLOOR
            + _LAYER_RATE * sum(sizes.get(name, 0) for name in layer.params),
            layer.params,
        )
        for layer in profiled.layers
    )
    return BackwardTimeline(layers)


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
        this below ``baseline_accuracy`` is scored infeasible (lossy
        plans must not buy speed with model quality).
    baseline_accuracy:
        Anchor for the accuracy bound. ``None`` defers the bound until
        :meth:`set_baseline` is called (the driver scores the default
        plan first and anchors on it).
    cache:
        Shared replay cache; a fresh private one by default. Never share
        a tuner cache with unfiltered runners — the evaluator stores
        *normalized* recordings under the standard keys.
    """

    def __init__(
        self,
        space: PlanSpace,
        *,
        link: str = "10Mbps",
        accuracy_floor_delta: float = 0.05,
        baseline_accuracy: float | None = None,
        cache: SweepReplayCache | None = None,
    ):
        self.space = space
        self.link = link
        self.accuracy_floor_delta = float(accuracy_floor_delta)
        self.baseline_accuracy = baseline_accuracy
        self.cache = cache if cache is not None else SweepReplayCache()
        self._runners: dict[ExperimentConfig, ExperimentRunner] = {}
        self._timelines: dict[tuple, BackwardTimeline] = {}
        #: Simulator evaluations performed (the search budget's unit).
        self.evaluations = 0

    def set_baseline(self, accuracy: float) -> None:
        self.baseline_accuracy = float(accuracy)

    def _timeline_key(self, config: ExperimentConfig) -> tuple:
        return (
            config.model_family,
            config.depth,
            config.base_width,
            config.mlp_hidden,
            config.image_size,
            config.num_classes,
            config.model_seed,
            config.batch_size,
            config.dataset_seed,
        )

    def _runner(self, config: ExperimentConfig) -> ExperimentRunner:
        runner = self._runners.get(config)
        if runner is None:
            runner = ExperimentRunner(
                config,
                replay_cache=self.cache,
                recording_filter=normalize_recording,
            )
            # Pre-seed the deterministic timeline under the runner's
            # canonical key so the measured profile never runs: every
            # process (and every same-seed rerun) simulates the same
            # schedule.
            canonical = replace(config, **ExperimentRunner._SIM_ONLY_CANONICAL)
            if self.cache.timeline(canonical) is None:
                tkey = self._timeline_key(config)
                timeline = self._timelines.get(tkey)
                if timeline is None:
                    timeline = deterministic_timeline(config)
                    self._timelines[tkey] = timeline
                self.cache.store_timeline(canonical, timeline)
            self._runners[config] = runner
        return runner

    def evaluate(self, point: PlanPoint, fraction: float = 1.0) -> PlanScore:
        """Train-or-replay the point and score it at the objective link."""
        config = self.space.apply(point)
        runner = self._runner(config)
        result = runner.run(point.scheme, fraction)
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

    def evaluate_batch(self, points, fraction: float = 1.0) -> list[PlanScore]:
        """Score ``points`` in order."""
        return [self.evaluate(p, fraction) for p in points]
