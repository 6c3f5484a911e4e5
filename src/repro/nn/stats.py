"""Model statistics: parameter counts, FLOP estimates, backward timelines.

The paper motivates its choice of workload with ResNet's low
parameter-to-computation ratio (§5.2): compared to VGG-style networks,
ResNets generate little state-change traffic per unit of computation,
making them a *challenging* target for communication reduction. These
utilities quantify that ratio for any model built from this package's
layers, so experiments can report the same characterization.

FLOPs are multiply-accumulate pairs counted as 2 operations, forward pass
only, for a single example.

:func:`profile_backward` measures the *per-layer* backward timeline the
discrete-event network simulator (``repro.netsim``) replays: backward
visits layers in reverse registration order, so the order in which leaf
modules report their backward durations is exactly the order in which
gradient tensors become available for transmission (the paper's
fine-grained per-layer barriers, §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.functional import conv_output_size
from repro.nn.linear import Linear
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d

__all__ = [
    "ModelStats",
    "model_stats",
    "LayerTiming",
    "BackwardTimeline",
    "profile_backward",
]


@dataclass(frozen=True)
class ModelStats:
    """Size and compute characterization of a model.

    Attributes
    ----------
    parameters:
        Trainable parameter count.
    flops:
        Forward-pass floating-point operations per example.
    bytes_per_step:
        State-change bytes one worker pushes per step at float32.
    params_per_mflop:
        The paper's parameter-to-computation ratio (parameters per
        million FLOPs) — lower means less traffic per unit compute.
    """

    parameters: int
    flops: int

    @property
    def bytes_per_step(self) -> int:
        return 4 * self.parameters

    @property
    def params_per_mflop(self) -> float:
        if self.flops == 0:
            return float("inf")
        return self.parameters / (self.flops / 1e6)


def model_stats(model: Module, input_shape: tuple[int, int, int]) -> ModelStats:
    """Compute :class:`ModelStats` for NCHW models built from repro layers.

    Parameters
    ----------
    model:
        Any module tree composed of this package's layers.
    input_shape:
        Single-example shape ``(channels, height, width)``.
    """
    parameters = sum(p.size for p in model.parameters())
    flops = 0
    channels, height, width = input_shape

    # Walk the tree in construction (pre-)order via Module.iter_modules.
    # Residual blocks register conv1, bn1, relu, conv2, bn2, relu,
    # shortcut; the parameter-free shortcut path contributes no FLOPs, and
    # the geometry after visiting the main path is the block's output
    # geometry, which is what downstream layers see.
    for module in model.iter_modules():
        if isinstance(module, Conv2d):
            out_h = conv_output_size(height, module.kernel, module.stride, module.pad)
            out_w = conv_output_size(width, module.kernel, module.stride, module.pad)
            macs = (
                module.out_channels
                * out_h
                * out_w
                * module.in_channels
                * module.kernel
                * module.kernel
            )
            flops += 2 * macs
            channels, height, width = module.out_channels, out_h, out_w
        elif isinstance(module, Linear):
            flops += 2 * module.in_features * module.out_features
        elif isinstance(module, BatchNorm2d):
            flops += 4 * channels * height * width  # normalize + affine

    return ModelStats(parameters=parameters, flops=flops)


# -- per-layer backward timelines -----------------------------------------


@dataclass(frozen=True)
class LayerTiming:
    """One leaf module's backward cost and the gradients it produces."""

    label: str
    seconds: float
    params: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"{self.label}: seconds must be >= 0")


@dataclass(frozen=True)
class BackwardTimeline:
    """Per-layer backward durations in *execution* (gradient-ready) order.

    Entry 0 is the first layer backward visits (the last layer of the
    forward pass); a parameter's gradient becomes available when its
    layer's entry completes. The simulator scales the timeline's
    *fractions* by each step's measured compute seconds, so one profile
    serves a whole training run.
    """

    layers: tuple[LayerTiming, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a backward timeline needs at least one layer")

    @property
    def total_seconds(self) -> float:
        return sum(layer.seconds for layer in self.layers)

    @property
    def fractions(self) -> tuple[float, ...]:
        """Each layer's share of the total backward time.

        A degenerate all-zero profile (clock resolution) degrades to a
        uniform split rather than dividing by zero.
        """
        total = self.total_seconds
        if total <= 0:
            return tuple(1.0 / len(self.layers) for _ in self.layers)
        return tuple(layer.seconds / total for layer in self.layers)

    def ready_fraction(self) -> dict[str, float]:
        """Map each parameter to the compute fraction at which its
        gradient is ready (cumulative timeline up to its layer)."""
        out: dict[str, float] = {}
        cumulative = 0.0
        for layer, fraction in zip(self.layers, self.fractions):
            cumulative += fraction
            for name in layer.params:
                out[name] = min(1.0, cumulative)
        return out

    def coarsen(self, groups: int) -> "BackwardTimeline":
        """Merge consecutive layers into ``groups`` barrier groups.

        ``groups=1`` models coarse-grained synchronization (every gradient
        ready only when the whole backward pass ends — nothing overlaps);
        ``groups=len(layers)`` is the identity. The overlap benchmark
        sweeps this knob to show how barrier granularity buys overlap.
        """
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        groups = min(groups, len(self.layers))
        bounds = np.linspace(0, len(self.layers), groups + 1).round().astype(int)
        merged = []
        for index in range(groups):
            chunk = self.layers[bounds[index] : bounds[index + 1]]
            if not chunk:
                continue
            merged.append(
                LayerTiming(
                    label=f"group{index}[{chunk[0].label}..{chunk[-1].label}]",
                    seconds=sum(l.seconds for l in chunk),
                    params=tuple(n for l in chunk for n in l.params),
                )
            )
        return BackwardTimeline(tuple(merged))


def profile_backward(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    loss_fn: SoftmaxCrossEntropy | None = None,
    repeats: int = 3,
) -> BackwardTimeline:
    """Measure the model's per-layer backward timeline on one minibatch.

    Registers backward hooks on every *leaf* module (containers report the
    sum of their children and would double-count), runs ``repeats``
    forward/backward passes, and averages each layer's duration by
    position. Hooks are removed before returning.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    loss_fn = loss_fn or SoftmaxCrossEntropy()
    leaves = [m for m in model.iter_modules() if not m._children]
    records: list[list[tuple[Module, float]]] = []
    current: list[tuple[Module, float]] = []

    def hook(module: Module, seconds: float) -> None:
        current.append((module, seconds))

    handles = [leaf.register_backward_hook(hook) for leaf in leaves]
    try:
        for _ in range(repeats):
            current = []
            logits = model.forward(images, training=True)
            loss_fn.forward(logits, labels)
            model.zero_grad()
            model.backward(loss_fn.backward())
            records.append(current)
    finally:
        for handle in handles:
            handle.remove()

    order = records[0]
    for other in records[1:]:
        if [m for m, _ in other] != [m for m, _ in order]:
            raise RuntimeError("backward visited layers in an unstable order")

    layers = []
    for position, (module, _) in enumerate(order):
        mean_seconds = float(
            np.mean([records[r][position][1] for r in range(repeats)])
        )
        layers.append(
            LayerTiming(
                label=f"{type(module).__name__.lower()}:{position}",
                seconds=mean_seconds,
                # A module invoked more than once per step (shared
                # activation instances) contributes its parameters at its
                # *last* backward call — only then are its grads final.
                params=(
                    tuple(p.name for p in module.parameters())
                    if position == _last_call(order, module)
                    else ()
                ),
            )
        )
    return BackwardTimeline(tuple(layers))


def _last_call(order: list[tuple[Module, float]], module: Module) -> int:
    """Position of a module's final backward call within one pass."""
    for position in range(len(order) - 1, -1, -1):
        if order[position][0] is module:
            return position
    raise ValueError("module not in backward order")
