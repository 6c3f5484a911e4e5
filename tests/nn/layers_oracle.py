"""Reference elementwise layers: the multi-pass bodies ``repro.nn`` used before.

``ReLU`` by ``np.where``, ``BatchNorm2d`` by ``x.mean`` / ``x.var`` and
out-of-place arithmetic, ``PadShortcut`` by ``np.pad``, ``BasicBlock`` by
out-of-place adds — the forward / backward bodies moved here verbatim, kept
as the oracle the single-pass layers must equal bit for bit. Each class
subclasses the layer it checks (same constructor, parameter names and
``isinstance`` identity) and replaces only ``forward`` / ``backward``;
:func:`installed` makes the model builders assemble them.
"""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.nn import resnet as resnet_module
from repro.nn import vgg as vgg_module

LAYERS = ("ReLU", "BatchNorm2d", "PadShortcut", "GlobalAvgPool2d", "BasicBlock")


class ReLU(nn.ReLU):
    def forward(self, x, training=False):
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, np.float32(0.0)).astype(np.float32, copy=False)

    def backward(self, grad_output):
        if self._mask is None:
            raise RuntimeError("backward before forward(training=True)")
        mask, self._mask = self._mask, None
        return (grad_output * mask).astype(np.float32, copy=False)


class BatchNorm2d(nn.BatchNorm2d):
    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(f"expected (N, {self.channels}, H, W), got {x.shape}")
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        out = self.gamma.data.reshape(1, -1, 1, 1) * x_hat + self.beta.data.reshape(
            1, -1, 1, 1
        )
        if training:
            self._cache = (x_hat, inv_std)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output):
        if self._cache is None:
            raise RuntimeError("backward before forward(training=True)")
        x_hat, inv_std = self._cache
        self._cache = None
        n, _, h, w = grad_output.shape
        m = n * h * w  # reduction size per channel
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        # Standard batch-norm input gradient:
        # dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
        gamma = self.gamma.data.reshape(1, -1, 1, 1)
        sum_dy = grad_output.sum(axis=(0, 2, 3), keepdims=True)
        sum_dy_xhat = (grad_output * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (
            gamma
            * inv_std.reshape(1, -1, 1, 1)
            / m
            * (m * grad_output - sum_dy - x_hat * sum_dy_xhat)
        )
        return dx.astype(np.float32, copy=False)


class PadShortcut(nn.PadShortcut):
    def forward(self, x, training=False):
        if training:
            self._in_shape = x.shape
        out = x[:, :, :: self.stride, :: self.stride]
        pad = self.out_channels - self.in_channels
        if pad:
            out = np.pad(out, ((0, 0), (0, pad), (0, 0), (0, 0)))
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output):
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        shape, self._in_shape = self._in_shape, None
        grad = np.zeros(shape, dtype=np.float32)
        grad[:, :, :: self.stride, :: self.stride] = grad_output[
            :, : self.in_channels
        ]
        return grad


class GlobalAvgPool2d(nn.GlobalAvgPool2d):
    def forward(self, x, training=False):
        if training:
            self._in_shape = x.shape
        return x.mean(axis=(2, 3)).astype(np.float32, copy=False)

    def backward(self, grad_output):
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        n, c, h, w = self._in_shape
        self._in_shape = None
        grad = grad_output.reshape(n, c, 1, 1) / np.float32(h * w)
        return np.broadcast_to(grad, (n, c, h, w)).astype(np.float32)


class BasicBlock(nn.BasicBlock):
    def forward(self, x, training=False):
        main = self.conv1.forward(x, training)
        main = self.bn1.forward(main, training)
        main = self.relu1.forward(main, training)
        main = self.conv2.forward(main, training)
        main = self.bn2.forward(main, training)
        residual = self.shortcut.forward(x, training)
        return self.relu_out.forward(main + residual, training)

    def backward(self, grad_output):
        grad_sum = self.relu_out.backward(grad_output)
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_residual = self.shortcut.backward(grad_sum)
        return grad_main + grad_residual


@contextlib.contextmanager
def installed():
    """While active, ``build_resnet`` / ``build_mlp`` / ``build_vgg`` (and the
    oracle ``BasicBlock`` constructor) assemble the oracle layers."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (resnet_module, vgg_module):
            for name in LAYERS:
                if hasattr(module, name):
                    patch.setattr(module, name, globals()[name])
        yield
