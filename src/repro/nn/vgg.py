"""VGG-style plain convolutional networks (Simonyan & Zisserman).

The paper motivates its ResNet workload by contrast with VGG (§5.2):
"Compared to traditional neural network architectures such as VGG, ResNet
models typically have small parameter count to computation ratios,
generating less state change traffic for the same amount of communication"
— i.e. VGG is the *easy* case for traffic compression and ResNet the
challenging one. This builder exists so that claim is measurable with
:func:`repro.nn.stats.model_stats` (see the architecture-ratio test and
bench), and so users can evaluate compression on a high-traffic model.

The CIFAR-scale variant stacks 3×3 conv/BN/ReLU groups with 2× average-
pool downsampling and finishes with the classic large fully-connected
head — the FC head is what gives VGG its parameter bulk.
"""

from __future__ import annotations

from repro.data.synthetic import CHANNELS, NUM_CLASSES
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import AvgPool2d
from repro.utils.seeding import SeedSequenceFactory

__all__ = ["build_vgg"]


def build_vgg(
    *, image_size: int = 16, base_width: int = 16, fc_width: int = 256
) -> Sequential:
    """Build a CIFAR-scale VGG-style network: 3-channel images, 10 classes,
    three stages of two 3×3 conv layers each, weights from seed 0.

    Parameters
    ----------
    image_size:
        Image side; must be divisible by ``2 ** 3`` (one 2× pool per stage).
    base_width:
        Channels of the first stage; doubles per stage (VGG convention).
    fc_width:
        Width of the two fully-connected head layers — the parameter-heavy
        part that drives VGG's high params-per-FLOP ratio.
    """
    stages = 3
    if image_size % (2**stages):
        raise ValueError(
            f"image_size {image_size} not divisible by 2**{stages}"
        )
    rng = SeedSequenceFactory(0).rng("vgg-init")
    layers: list[Module] = []
    channels = CHANNELS
    width = base_width
    size = image_size
    for stage in range(stages):
        for index in range(2):
            name = f"stage{stage}/conv{index}"
            layers += [
                Conv2d(channels, width, 3, name=name, rng=rng),
                BatchNorm2d(width, name=f"stage{stage}/bn{index}"),
                ReLU(),
            ]
            channels = width
        layers.append(AvgPool2d(2))
        size //= 2
        width *= 2
    layers += [
        Flatten(),
        Linear(channels * size * size, fc_width, name="head/fc0", rng=rng),
        ReLU(),
        Linear(fc_width, NUM_CLASSES, name="head/fc1", rng=rng),
    ]
    return Sequential(*layers)
