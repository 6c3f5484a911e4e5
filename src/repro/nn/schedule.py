"""Learning-rate schedules.

The paper trains with cosine decay without restarts (Loshchilov & Hutter)
over the *adjusted* total step budget — when an experiment runs 25/50/75%
of standard steps, the schedule still sweeps the full learning-rate range
(paper §5.2, Measurement Methodology).
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["Schedule", "CosineDecay", "ConstantLR", "scale_lr_for_workers", "MIN_LR"]

Schedule = Callable[[int], float]

#: The cosine floor (paper: 0.1 -> 0.001).
MIN_LR = 0.001


class CosineDecay:
    """Cosine decay from ``base_lr`` to :data:`MIN_LR` over ``total_steps``.

    ``lr(t) = min + 0.5 (base - min) (1 + cos(pi t / T))``. The paper's
    range is 0.1 → 0.001.
    """

    def __init__(self, base_lr: float, total_steps: int):
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps!r}")
        if base_lr < MIN_LR:
            raise ValueError("base_lr must be >= min_lr")
        self.base_lr = float(base_lr)
        self.total_steps = int(total_steps)

    def __call__(self, step: int) -> float:
        t = min(max(step, 0), self.total_steps)
        cos = 0.5 * (1.0 + math.cos(math.pi * t / self.total_steps))
        return MIN_LR + (self.base_lr - MIN_LR) * cos


class ConstantLR:
    """Fixed learning rate."""

    def __init__(self, lr: float):
        self.lr = float(lr)

    def __call__(self, step: int) -> float:
        return self.lr


def scale_lr_for_workers(base_lr: float, num_workers: int) -> float:
    """Linear LR scaling rule (Goyal et al.; paper §5.2).

    The paper scales the learning rate proportionally to the worker count
    for large-batch distributed training.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers!r}")
    return base_lr * num_workers
