"""Tests for model statistics."""

import numpy as np
import pytest

from repro.nn import build_mlp, build_resnet, model_stats


class TestModelStats:
    def test_linear_flops(self):
        model = build_mlp(16, (), num_classes=4, seed=0)  # single Linear
        stats = model_stats(model, (1, 4, 4))
        assert stats.parameters == 16 * 4 + 4
        assert stats.flops == 2 * 16 * 4

    def test_conv_flops_hand_computed(self):
        from repro.nn import Conv2d, Sequential

        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(2, 3, 3, stride=1, name="c", rng=rng))
        stats = model_stats(model, (2, 8, 8))
        # 3 filters * 8*8 outputs * 2*3*3 inputs * 2 ops
        assert stats.flops == 2 * 3 * 8 * 8 * 2 * 3 * 3
        assert stats.parameters == 3 * 2 * 3 * 3

    def test_resnet_ratio_decreases_with_depth(self):
        """Deeper CIFAR ResNets add compute faster than parameters in their
        early stages — the low params-per-FLOP property the paper exploits
        (§5.2). Sanity: the ratio stays within an order of magnitude."""
        shallow = model_stats(build_resnet(8, base_width=8), (3, 16, 16))
        deep = model_stats(build_resnet(20, base_width=8), (3, 16, 16))
        assert deep.parameters > shallow.parameters
        assert deep.flops > shallow.flops
        assert 0.2 < deep.params_per_mflop / shallow.params_per_mflop < 5

    def test_strided_geometry_tracked(self):
        # Stage transitions halve spatial dims; FLOPs must use the reduced
        # geometry, so doubling the input size ~4x the FLOPs.
        small = model_stats(build_resnet(8, base_width=4), (3, 8, 8))
        large = model_stats(build_resnet(8, base_width=4), (3, 16, 16))
        assert large.flops == pytest.approx(4 * small.flops, rel=0.05)
        assert large.parameters == small.parameters
