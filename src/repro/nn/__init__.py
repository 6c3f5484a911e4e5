"""Pure-NumPy neural-network substrate.

Implements everything the paper's workload needs without TensorFlow:
convolution (strided-copy im2col + GEMM), batch normalization, ReLU,
pooling, linear layers, identity-mapping residual networks, softmax
cross-entropy, momentum SGD with weight decay, and cosine/constant LR
schedules. Each layer carries an analytic backward pass; there is no
autograd tape.
"""

from repro.nn.activations import Identity, ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Flatten, Linear
from repro.nn.loss import SoftmaxCrossEntropy, accuracy, softmax
from repro.nn.module import BackwardHookHandle, Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.optimizer import MomentumSGD
from repro.nn.parameter import Parameter
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d
from repro.nn.resnet import BasicBlock, PadShortcut, build_mlp, build_resnet
from repro.nn.schedule import ConstantLR, CosineDecay, scale_lr_for_workers
from repro.nn.stats import (
    BackwardTimeline,
    LayerTiming,
    ModelStats,
    model_stats,
    profile_backward,
)
from repro.nn.vgg import build_vgg

__all__ = [
    "Module",
    "Sequential",
    "Parameter",
    "Conv2d",
    "Linear",
    "Flatten",
    "BatchNorm2d",
    "ReLU",
    "Identity",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BasicBlock",
    "PadShortcut",
    "build_resnet",
    "build_mlp",
    "build_vgg",
    "SoftmaxCrossEntropy",
    "softmax",
    "accuracy",
    "MomentumSGD",
    "CosineDecay",
    "ConstantLR",
    "scale_lr_for_workers",
    "ModelStats",
    "model_stats",
    "BackwardHookHandle",
    "BackwardTimeline",
    "LayerTiming",
    "profile_backward",
]
