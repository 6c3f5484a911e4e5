"""Identity-mapping residual networks (He et al. 2015), CIFAR style.

The paper trains ResNet-110 for CIFAR-10 — a depth-``6n+2`` network with
three stages of ``n`` basic blocks at widths (16, 32, 64), stride-2
transitions, and option-A shortcuts (parameter-free subsample +
zero-channel padding). :func:`build_resnet` reproduces that topology at any
depth/width, so the reproduction uses the *same architecture family* at a
scale NumPy can train (e.g. ResNet-8/14/20 on smaller synthetic images).

An MLP factory is included for fast unit tests and examples.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import CHANNELS, NUM_CLASSES
from repro.nn.activations import Identity, ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d
from repro.utils.seeding import SeedSequenceFactory

__all__ = ["PadShortcut", "BasicBlock", "build_resnet", "build_mlp", "resnet_depth_blocks"]


class PadShortcut(Module):
    """Option-A ResNet shortcut: subsample spatially, zero-pad channels.

    Parameter-free, so it adds no state-change traffic — the reason the
    original CIFAR ResNets (and ours) prefer it over 1×1 projections.
    ``forward`` returns a new C-contiguous array, or a strided view of
    ``x`` when no channel is added; ``backward`` returns C order.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int):
        super().__init__()
        if out_channels < in_channels:
            raise ValueError("PadShortcut cannot shrink channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        out = x[:, :, :: self.stride, :: self.stride]
        if self.out_channels == self.in_channels:
            return out.astype(np.float32, copy=False)
        padded = np.zeros(
            (x.shape[0], self.out_channels, *out.shape[2:]), dtype=np.float32
        )
        padded[:, : self.in_channels] = out
        return padded

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward before forward(training=True)")
        shape, self._in_shape = self._in_shape, None
        grad = np.zeros(shape, dtype=np.float32)
        grad[:, :, :: self.stride, :: self.stride] = grad_output[
            :, : self.in_channels
        ]
        return grad


class BasicBlock(Module):
    """Post-activation basic residual block: ``relu(F(x) + shortcut(x))``.

    Returns batch-minor order for a batch-minor ``x`` and an identity
    shortcut, C order otherwise; ``backward`` returns C order.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        stride: int = 1,
        name: str = "block",
        rng: np.random.Generator,
    ):
        super().__init__()
        self.conv1 = self.register_child(
            Conv2d(
                in_channels, out_channels, 3, stride=stride, name=f"{name}/conv1", rng=rng
            )
        )
        self.bn1 = self.register_child(BatchNorm2d(out_channels, name=f"{name}/bn1"))
        self.relu1 = self.register_child(ReLU())
        self.conv2 = self.register_child(
            Conv2d(out_channels, out_channels, 3, name=f"{name}/conv2", rng=rng)
        )
        self.bn2 = self.register_child(BatchNorm2d(out_channels, name=f"{name}/bn2"))
        self.relu_out = self.register_child(ReLU())
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = self.register_child(
                PadShortcut(in_channels, out_channels, stride)
            )
        else:
            self.shortcut = self.register_child(Identity())

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        main = self.conv1.forward(x, training)
        main = self.bn1.forward(main, training)
        main = self.relu1.forward(main, training)
        main = self.conv2.forward(main, training)
        main = self.bn2.forward(main, training)
        residual = self.shortcut.forward(x, training)
        return self.relu_out.forward(main + residual, training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu_out.backward(grad_output)
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_residual = self.shortcut.backward(grad_sum)
        return grad_main + grad_residual


def resnet_depth_blocks(depth: int) -> int:
    """Blocks per stage for a CIFAR ResNet of the given depth (6n+2)."""
    if depth % 6 != 2 or depth < 8:
        raise ValueError(f"CIFAR ResNet depth must be 6n+2 with n >= 1, got {depth}")
    return (depth - 2) // 6


def build_resnet(
    depth: int = 20,
    *,
    base_width: int = 16,
    seed: int = 0,
) -> Sequential:
    """Build a CIFAR-style ResNet of depth ``6n+2`` over the synthetic
    task's 3-channel images, with one output per class.

    Parameters
    ----------
    depth:
        Total weighted-layer count (8, 14, 20, ..., 110). The paper's
        workload is depth 110; the reproduction defaults to depths NumPy
        trains in reasonable time while preserving the topology.
    base_width:
        Width of the first stage; stages use (w, 2w, 4w).
    seed:
        Weight-initialization seed.
    """
    n = resnet_depth_blocks(depth)
    rng = SeedSequenceFactory(seed).rng("resnet-init")
    layers: list[Module] = [
        Conv2d(CHANNELS, base_width, 3, name="stem/conv", rng=rng),
        BatchNorm2d(base_width, name="stem/bn"),
        ReLU(),
    ]
    widths = [base_width, base_width * 2, base_width * 4]
    current = base_width
    for stage, width in enumerate(widths):
        for block in range(n):
            stride = 2 if (stage > 0 and block == 0) else 1
            layers.append(
                BasicBlock(
                    current,
                    width,
                    stride=stride,
                    name=f"stage{stage}/block{block}",
                    rng=rng,
                )
            )
            current = width
    layers += [
        GlobalAvgPool2d(),
        Linear(current, NUM_CLASSES, name="head/fc", rng=rng),
    ]
    return Sequential(*layers)


def build_mlp(
    in_features: int,
    hidden: tuple[int, ...] = (64, 64),
    *,
    seed: int = 0,
) -> Sequential:
    """Small ReLU MLP over flattened inputs (fast tests and examples)."""
    rng = SeedSequenceFactory(seed).rng("mlp-init")
    layers: list[Module] = [Flatten()]
    prev = in_features
    for i, width in enumerate(hidden):
        layers.append(Linear(prev, width, name=f"fc{i}", rng=rng))
        layers.append(ReLU())
        prev = width
    layers.append(Linear(prev, NUM_CLASSES, name="head/fc", rng=rng))
    return Sequential(*layers)
