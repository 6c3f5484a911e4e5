"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["GlobalAvgPool2d", "AvgPool2d"]


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: ``(N,C,H,W) -> (N,C)``.

    The classifier head of CIFAR ResNets. The mean reads ``x`` in the
    memory order it arrives in (C order from the last residual block), and
    that order is part of the numerical contract: over contiguous ``H·W``
    runs NumPy sums pairwise, over strided ones sequentially.
    """

    def __init__(self):
        super().__init__()
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        return x.mean(axis=(2, 3)).astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        n, c, h, w = self._in_shape
        self._in_shape = None
        grad = grad_output.reshape(n, c, 1, 1) / np.float32(h * w)
        return np.broadcast_to(grad, (n, c, h, w)).astype(np.float32)


class AvgPool2d(Module):
    """Non-overlapping average pooling with square windows."""

    def __init__(self, window: int):
        super().__init__()
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.window = int(window)
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.window
        if h % k or w % k:
            raise ValueError(f"spatial dims {(h, w)} not divisible by window {k}")
        if training:
            self._in_shape = x.shape
        return (
            x.reshape(n, c, h // k, k, w // k, k)
            .mean(axis=(3, 5))
            .astype(np.float32, copy=False)
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        n, c, h, w = self._in_shape
        self._in_shape = None
        k = self.window
        grad = grad_output.reshape(n, c, h // k, 1, w // k, 1) / np.float32(k * k)
        return np.broadcast_to(
            grad, (n, c, h // k, k, w // k, k)
        ).reshape(n, c, h, w).astype(np.float32)
