"""Fully-connected layer and flattening."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Linear", "Flatten"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` on ``(N, in_features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        name: str = "fc",
        rng: np.random.Generator,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            Parameter(
                f"{name}/weight",
                he_normal((out_features, in_features), in_features, rng),
            )
        )
        self.bias = self.register_parameter(
            Parameter(f"{name}/bias", zeros((out_features,)), weight_decay=False)
        )
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (N, {self.in_features}), got {x.shape}")
        if training:
            self._input = x
        out = x @ self.weight.data.T + self.bias.data
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward before forward(training=True)")
        x, self._input = self._input, None
        self.weight.accumulate_grad(grad_output.T @ x)
        self.bias.accumulate_grad(grad_output.sum(axis=0))
        return (grad_output @ self.weight.data).astype(np.float32, copy=False)


class Flatten(Module):
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def __init__(self):
        super().__init__()
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        shape, self._in_shape = self._in_shape, None
        return grad_output.reshape(shape)
