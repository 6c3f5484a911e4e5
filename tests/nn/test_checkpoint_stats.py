"""Tests for checkpointing and model statistics."""

import numpy as np
import pytest

from repro.nn import (
    ConstantLR,
    MomentumSGD,
    build_mlp,
    build_resnet,
    load_checkpoint,
    model_stats,
    save_checkpoint,
)
from repro.nn.loss import SoftmaxCrossEntropy


def _train_a_bit(model, optimizer, steps=3, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    loss_fn = SoftmaxCrossEntropy()
    x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=4)
    for _ in range(steps):
        logits = model.forward(x, training=True)
        loss_fn.forward(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        optimizer.step(model.parameters(), 0.05)
    return x, y


class TestCheckpoint:
    def test_roundtrip_restores_parameters(self, tmp_path):
        model = build_resnet(8, base_width=4, seed=1)
        opt = MomentumSGD(0.9, 1e-4)
        _train_a_bit(model, opt)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, opt, step=3)

        fresh = build_resnet(8, base_width=4, seed=99)
        fresh_opt = MomentumSGD(0.9, 1e-4)
        step = load_checkpoint(path, fresh, fresh_opt)
        assert step == 3
        for name, value in fresh.state_dict().items():
            np.testing.assert_array_equal(value, model.state_dict()[name])

    def test_restores_bn_running_stats(self, tmp_path):
        model = build_resnet(8, base_width=4, seed=1)
        opt = MomentumSGD()
        x, _ = _train_a_bit(model, opt)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, step=1)
        fresh = build_resnet(8, base_width=4, seed=2)
        load_checkpoint(path, fresh)
        # Eval-mode forward uses running stats: outputs must match exactly.
        np.testing.assert_array_equal(
            fresh.forward(x, training=False), model.forward(x, training=False)
        )

    def test_resume_continues_identically(self, tmp_path):
        """Save, train k steps; reload, train k steps: identical weights."""
        model_a = build_resnet(8, base_width=4, seed=1)
        opt_a = MomentumSGD(0.9, 1e-4)
        _train_a_bit(model_a, opt_a, steps=2)
        path = tmp_path / "mid.npz"
        save_checkpoint(path, model_a, opt_a, step=2)
        _train_a_bit(model_a, opt_a, steps=2, rng_seed=7)

        model_b = build_resnet(8, base_width=4, seed=50)
        opt_b = MomentumSGD(0.9, 1e-4)
        load_checkpoint(path, model_b, opt_b)
        _train_a_bit(model_b, opt_b, steps=2, rng_seed=7)
        for name, value in model_b.state_dict().items():
            np.testing.assert_allclose(
                value, model_a.state_dict()[name], atol=1e-6, err_msg=name
            )

    def test_bn_stats_of_another_width_rejected_by_name(self, tmp_path):
        """``bnstat/`` entries are matched by position, so only their shape
        can tell a checkpoint of another model."""
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, build_resnet(8, base_width=4, seed=1))
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["bnstat/0/running_var"] = np.ones(1, dtype=np.float32)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"stem/bn/running_var: shape \(1,\)"):
            load_checkpoint(path, build_resnet(8, base_width=4, seed=1))

    def test_architecture_mismatch_rejected(self, tmp_path):
        model = build_mlp(16, (8,), num_classes=3, seed=0)
        path = tmp_path / "mlp.npz"
        save_checkpoint(path, model)
        other = build_mlp(16, (4,), num_classes=3, seed=0)
        with pytest.raises(ValueError):
            load_checkpoint(path, other)


class TestModelStats:
    def test_linear_flops(self):
        model = build_mlp(16, (), num_classes=4, seed=0)  # single Linear
        stats = model_stats(model, (1, 4, 4))
        assert stats.parameters == 16 * 4 + 4
        assert stats.flops == 2 * 16 * 4

    def test_conv_flops_hand_computed(self):
        from repro.nn import Conv2d, Sequential

        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(2, 3, 3, stride=1, pad=1, name="c", rng=rng))
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

    def test_bytes_per_step(self):
        stats = model_stats(build_resnet(8, base_width=4), (3, 8, 8))
        assert stats.bytes_per_step == 4 * stats.parameters

    def test_strided_geometry_tracked(self):
        # Stage transitions halve spatial dims; FLOPs must use the reduced
        # geometry, so doubling the input size ~4x the FLOPs.
        small = model_stats(build_resnet(8, base_width=4), (3, 8, 8))
        large = model_stats(build_resnet(8, base_width=4), (3, 16, 16))
        assert large.flops == pytest.approx(4 * small.flops, rel=0.05)
        assert large.parameters == small.parameters
