"""Momentum SGD, matching TensorFlow's ``MomentumOptimizer`` semantics.

Update rule (the paper's local optimizer, §5.2, momentum 0.9 and weight
decay 1e-4)::

    g     = grad + WEIGHT_DECAY * param        (L2, where enabled)
    accum = MOMENTUM * accum + g
    param = param - lr * accum

The optimizer keeps one accumulator slot per parameter name. In the
distributed setup the *server* owns the optimizer (gradient aggregation and
model update happen there, paper §2) and steps its own parameter copies.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["MomentumSGD", "MOMENTUM", "WEIGHT_DECAY"]

#: Momentum factor (paper: 0.9).
MOMENTUM = 0.9
#: L2 coefficient applied to parameters flagged ``weight_decay=True``
#: (paper: 1e-4).
WEIGHT_DECAY = 1e-4


class MomentumSGD:
    """Momentum SGD with L2 weight decay, at the paper's constants."""

    def __init__(self):
        self._slots: dict[str, np.ndarray] = {}

    def _slot(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = np.zeros(shape, dtype=np.float32)
        return slot

    def step(self, parameters: list[Parameter], lr: float) -> None:
        """Apply one update to Parameter objects in place."""
        for param in parameters:
            if param.grad is None:
                raise RuntimeError(f"parameter {param.name} has no gradient")
            grad = param.grad
            if param.weight_decay:
                grad = grad + WEIGHT_DECAY * param.data
            slot = self._slot(param.name, param.data.shape)
            slot *= MOMENTUM
            slot += grad
            param.data -= np.float32(lr) * slot

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of accumulator slots (for checkpointing)."""
        return {name: slot.copy() for name, slot in self._slots.items()}
