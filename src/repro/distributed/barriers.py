"""Barrier relaxation: backup workers and straggler modelling (paper §2.1).

The paper's baseline is TensorFlow's ``SyncReplicasOptimizer``, whose
*backup workers* mechanism lets a global step proceed once a sufficient
number of gradient updates arrived, dropping late pushes so stragglers do
not stall the cluster (Chen et al. 2016, cited as [6]).

This module reproduces that machinery for the simulator:

* :class:`StragglerSpec` — a deterministic per-(worker, step) compute-time
  multiplier distribution: occasional heavy slowdowns on top of mild
  log-normal jitter, the empirical straggler shape the systems literature
  reports.
* :class:`FullBarrier` — vanilla BSP: wait for everyone, aggregate all.
* :class:`BackupWorkerBarrier` — accept the first ``required`` pushes by
  arrival time; late pushes are *discarded* (their state changes are lost,
  exactly as in SyncReplicasOptimizer — a real cost that compression
  contexts cannot recover because the sender already subtracted the
  reconstruction from its error buffer).

Arrival time is the straggler-scaled compute time plus compression time;
the barrier returns both the accepted worker set and the step's effective
compute latency (the slowest *accepted* worker), which is what the step-
time model should charge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = ["StragglerSpec", "BarrierDecision", "FullBarrier", "BackupWorkerBarrier"]


@dataclass(frozen=True)
class StragglerSpec:
    """Per-step compute-time jitter with occasional heavy stragglers.

    Attributes
    ----------
    jitter_sigma:
        Sigma of the always-on log-normal jitter (0 disables).
    slowdown_probability:
        Per-worker, per-step probability of a straggler event.
    slowdown_factor:
        Multiplier applied during a straggler event (e.g. 10 = 10× slower).
    seed:
        Stream seed; multipliers are deterministic in (worker, step).
    """

    jitter_sigma: float = 0.1
    slowdown_probability: float = 0.05
    slowdown_factor: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Each value scales compute times, so NaN or inf must not pass.
        for name, low, high in (
            ("jitter_sigma", 0, math.inf),
            ("slowdown_probability", 0, 1),
            ("slowdown_factor", 1, math.inf),
        ):
            value = getattr(self, name)
            if not (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and low <= value <= high
            ):
                bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                raise ValueError(
                    f"{name} must be a finite number {bounds}, got {value!r}"
                )

    def multiplier(self, worker_id: int, step: int) -> float:
        """Deterministic compute-time multiplier for one worker-step."""
        rng = derive_rng(self.seed, "straggler", worker_id, step)
        value = float(np.exp(rng.normal(0.0, self.jitter_sigma))) if self.jitter_sigma else 1.0
        if rng.random() < self.slowdown_probability:
            value *= self.slowdown_factor
        return value


@dataclass(frozen=True)
class BarrierDecision:
    """Outcome of one barrier round.

    Attributes
    ----------
    accepted:
        Worker ids whose pushes enter aggregation, in arrival order.
    dropped:
        Worker ids whose pushes were discarded.
    compute_seconds:
        Effective step latency: the arrival time of the last accepted push.
    """

    accepted: tuple[int, ...]
    dropped: tuple[int, ...]
    compute_seconds: float


class FullBarrier:
    """Vanilla BSP: every worker's push is awaited and aggregated."""

    name = "bsp"

    def decide(self, arrival_seconds: dict[int, float]) -> BarrierDecision:
        if not arrival_seconds:
            raise ValueError("no workers")
        order = sorted(arrival_seconds, key=arrival_seconds.__getitem__)
        return BarrierDecision(
            accepted=tuple(order),
            dropped=(),
            compute_seconds=max(arrival_seconds.values()),
        )


class BackupWorkerBarrier:
    """Proceed after the first ``required`` pushes; drop the rest.

    Parameters
    ----------
    required:
        Number of gradient updates a global step waits for. With ``N``
        workers and ``b`` backup workers this is ``N - b``.
    """

    def __init__(self, required: int):
        if required < 1:
            raise ValueError("required must be >= 1")
        self.required = int(required)
        self.name = f"backup(required={required})"

    def decide(self, arrival_seconds: dict[int, float]) -> BarrierDecision:
        if len(arrival_seconds) < self.required:
            raise ValueError(
                f"barrier needs {self.required} workers, got {len(arrival_seconds)}"
            )
        order = sorted(arrival_seconds, key=arrival_seconds.__getitem__)
        accepted = tuple(order[: self.required])
        return BarrierDecision(
            accepted=accepted,
            dropped=tuple(order[self.required :]),
            compute_seconds=arrival_seconds[accepted[-1]],
        )
