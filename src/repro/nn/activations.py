"""Pointwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "Identity"]


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``.

    ``forward`` is one ``maximum`` pass and returns a new array in the
    memory order of ``x``; a NaN propagates, so a model with a NaN weight
    cannot report a finite loss. The training mask is kept C-contiguous,
    the order every gradient arrives in: ``backward`` multiplies like
    layouts and returns C order.
    """

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.maximum(x, 0.0)
        # Which operand wins a -0.0 / +0.0 tie is the platform's choice;
        # -0.0 + 0.0 is +0.0 everywhere and x + 0.0 is x for every other x.
        out += 0.0
        if training:
            self._mask = np.ascontiguousarray(x > 0)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward(training=True)")
        mask, self._mask = self._mask, None
        return (grad_output * mask).astype(np.float32, copy=False)


class Identity(Module):
    """No-op layer (placeholder shortcut branch)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
