"""Tests for the VGG builder and the §5.2 architecture-ratio claim."""

import numpy as np
import pytest

from repro.nn import build_resnet, build_vgg, model_stats


class TestBuildVgg:
    def test_output_shape(self):
        model = build_vgg(image_size=16)
        out = model.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            build_vgg(image_size=12)

    def test_deterministic_init(self):
        a = build_vgg().state_dict()
        b = build_vgg().state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_fc_head_dominates_parameters(self):
        """The classic VGG property: the dense head holds most weights."""
        model = build_vgg(image_size=32, fc_width=1024)
        head = sum(p.size for p in model.parameters() if p.name.startswith("head"))
        total = sum(p.size for p in model.parameters())
        assert head / total > 0.5

    def test_trains_one_step(self):
        from repro.nn import MomentumSGD
        from repro.nn.loss import SoftmaxCrossEntropy

        model = build_vgg(image_size=16, base_width=4, fc_width=32)
        loss_fn = SoftmaxCrossEntropy()
        x = np.random.default_rng(0).normal(size=(4, 3, 16, 16)).astype(np.float32)
        y = np.array([0, 1, 2, 3])
        first = loss_fn.forward(model.forward(x, training=True), y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        MomentumSGD().step(model.parameters(), 0.05)
        second = loss_fn.forward(model.forward(x, training=True), y)
        assert np.isfinite(second)


class TestArchitectureRatio:
    def test_vgg_has_higher_params_per_flop_than_resnet(self):
        """Paper §5.2: ResNets have small parameter-to-computation ratios
        compared to VGG — the reason ResNet is the *challenging* workload
        for traffic compression. Measured at CIFAR geometry (32×32)."""
        resnet = model_stats(build_resnet(20, base_width=16), (3, 32, 32))
        vgg = model_stats(
            build_vgg(image_size=32, base_width=16, fc_width=1024), (3, 32, 32)
        )
        assert vgg.params_per_mflop > 2 * resnet.params_per_mflop
