"""Momentum SGD, matching TensorFlow's ``MomentumOptimizer`` semantics.

Update rule (the paper's local optimizer, §5.2, momentum 0.9 and weight
decay 1e-4)::

    g     = grad + weight_decay * param        (L2, where enabled)
    accum = momentum * accum + g
    param = param - lr * accum

The optimizer keeps one accumulator slot per parameter name. In the
distributed setup the *server* owns the optimizer (gradient aggregation and
model update happen there, paper §2) and steps its own parameter copies.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["MomentumSGD"]


class MomentumSGD:
    """Momentum SGD with optional decoupled L2 weight decay.

    Parameters
    ----------
    momentum:
        Momentum factor (paper: 0.9).
    weight_decay:
        L2 coefficient applied to parameters flagged ``weight_decay=True``
        (paper: 1e-4).
    """

    def __init__(self, momentum: float = 0.9, weight_decay: float = 1e-4):
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum!r}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay!r}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
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
            if param.weight_decay and self.weight_decay:
                grad = grad + self.weight_decay * param.data
            slot = self._slot(param.name, param.data.shape)
            slot *= self.momentum
            slot += grad
            param.data -= np.float32(lr) * slot

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of accumulator slots (for checkpointing)."""
        return {name: slot.copy() for name, slot in self._slots.items()}
