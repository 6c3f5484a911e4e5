"""Batch normalization (Ioffe & Szegedy 2015), 2-D (per-channel) variant.

Batch-norm parameters are the paper's canonical "small layers": §5.1
excludes them from compression because the computation overhead outweighs
compacting already-tiny tensors. The distributed cluster uses
``weight_decay=False`` + the small-tensor bypass for these parameters, and
(following the large-batch training guideline the paper cites) makes one
worker responsible for updating batch-norm statistics.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import ones, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm2d"]

_AXES = (0, 2, 3)  # everything but the channel axis


class BatchNorm2d(Module):
    """Per-channel batch normalization over ``(N, H, W)``.

    ``forward`` returns a new array in the memory order of ``x`` and sums
    ``x`` in that order; ``backward`` sums ``grad_output`` as it arrives and
    ``grad_output * x_hat`` in the order NumPy gives the product (C order
    when the two disagree), which is also the order it returns. Pairwise
    summation rounds by memory order: these orders are numerical contract.
    ``x`` is float32 or float64 and ``grad_output`` no wider than ``x``
    (float32 throughout the package): ``backward`` works in ``x_hat``'s buffer.

    Parameters
    ----------
    channels:
        Number of feature channels.
    name:
        Parameter-name prefix.
    """

    #: EMA factor for running statistics (used at evaluation time).
    momentum = 0.9
    #: Numerical floor inside the square root.
    eps = 1e-5

    def __init__(self, channels: int, *, name: str = "bn"):
        super().__init__()
        self.name = name
        self.channels = channels
        self.gamma = self.register_parameter(
            Parameter(f"{name}/gamma", ones((channels,)), weight_decay=False)
        )
        self.beta = self.register_parameter(
            Parameter(f"{name}/beta", zeros((channels,)), weight_decay=False)
        )
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels or x.dtype.char not in "fd":
            want = f"float32/64 (N, {self.channels}, H, W)"
            raise ValueError(f"expected {want}, got {x.dtype} {x.shape}")
        if training:
            # np.mean / np.var step for step (NumPy 2.4 _methods._mean / _var:
            # sum / count, subtract, square, sum / count) on x's own memory
            # order, except that the centred tensor is kept: it is also the
            # numerator of x_hat. float16 would need their float32 accumulator.
            count = np.intp(x.size // self.channels)
            mean = np.add.reduce(x, axis=_AXES, keepdims=True)
            np.true_divide(mean, count, out=mean, casting="unsafe")
            x_hat = x - mean
            out = np.square(x_hat)  # scratch here, the output buffer below
            var = np.add.reduce(out, axis=_AXES, keepdims=True)
            np.true_divide(var, count, out=var, casting="unsafe")
            self.running_mean = self._ema(self.running_mean, mean)
            self.running_var = self._ema(self.running_var, var)
        else:
            var = self.running_var.reshape(1, -1, 1, 1)
            x_hat = out = x - self.running_mean.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        np.multiply(x_hat, self.gamma.data.reshape(1, -1, 1, 1), out=out)
        out += self.beta.data.reshape(1, -1, 1, 1)
        if training:
            self._cache = (x_hat, inv_std)
        return out.astype(np.float32, copy=False)

    def _ema(self, running: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return (
            self.momentum * running + (1 - self.momentum) * batch.reshape(-1)
        ).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward(training=True)")
        x_hat, inv_std = self._cache
        self._cache = None
        m = x_hat.size // self.channels  # reduction size per channel
        # Standard batch-norm input gradient, built in the product's buffer:
        # dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
        dx = grad_output * x_hat
        sum_dy_xhat = dx.sum(axis=_AXES, keepdims=True)
        sum_dy = grad_output.sum(axis=_AXES, keepdims=True)
        self.gamma.accumulate_grad(sum_dy_xhat.reshape(-1))
        self.beta.accumulate_grad(sum_dy.reshape(-1))
        np.multiply(grad_output, m, out=dx)
        dx -= sum_dy
        x_hat *= sum_dy_xhat  # the cache is spent: x_hat is ours to overwrite
        dx -= x_hat
        dx *= self.gamma.data.reshape(1, -1, 1, 1) * inv_std / m
        return dx.astype(np.float32, copy=False)

    def stats_dict(self) -> dict[str, np.ndarray]:
        """Running statistics (broadcast from server to workers if desired)."""
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def load_stats(self, stats: dict[str, np.ndarray]) -> None:
        """Replace the running statistics; a wrong shape, a non-finite value
        (what diverged training leaves behind in every layer) or a negative
        variance is an error here, not at the next forward."""
        mean = np.array(stats["running_mean"], dtype=np.float32)
        var = np.array(stats["running_var"], dtype=np.float32)
        for key, value, bad in (
            ("running_mean", mean, ~np.isfinite(mean)),
            ("running_var", var, ~np.isfinite(var) | (var < 0)),
        ):
            label = f"{self.name}/{key}"
            if value.shape != (self.channels,):
                raise ValueError(f"{label}: shape {value.shape} != ({self.channels},)")
            if bad.any():
                at = int(bad.argmax())
                raise ValueError(
                    f"{label}[{at}] = {value[at]!r}: a running statistic must be "
                    "finite (has training diverged?) and a variance >= 0"
                )
        self.running_mean, self.running_var = mean, var
