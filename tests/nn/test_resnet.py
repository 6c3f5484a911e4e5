"""ResNet topology and residual-block gradient tests."""

import numpy as np
import pytest

from repro.nn import BasicBlock, PadShortcut, build_mlp, build_resnet
from repro.nn.resnet import resnet_depth_blocks
from tests.nn.gradcheck import check_input_gradient


def _rng():
    return np.random.default_rng(0)


class TestPadShortcut:
    def test_subsample_and_pad(self):
        sc = PadShortcut(2, 4, stride=2)
        x = np.random.default_rng(1).normal(size=(1, 2, 6, 6)).astype(np.float32)
        out = sc.forward(x)
        assert out.shape == (1, 4, 3, 3)
        np.testing.assert_array_equal(out[:, :2], x[:, :, ::2, ::2])
        assert not out[:, 2:].any()

    def test_gradient(self):
        sc = PadShortcut(2, 4, stride=2)
        check_input_gradient(sc, np.random.default_rng(2).normal(size=(2, 2, 4, 4)))

    def test_cannot_shrink(self):
        with pytest.raises(ValueError):
            PadShortcut(4, 2, stride=1)

    def test_parameter_free(self):
        assert PadShortcut(2, 4, stride=2).parameters() == []


class TestBasicBlock:
    def test_identity_block_shape(self):
        block = BasicBlock(4, 4, rng=_rng())
        x = np.zeros((2, 4, 6, 6), dtype=np.float32)
        assert block.forward(x, training=True).shape == x.shape

    def test_downsample_block_shape(self):
        block = BasicBlock(4, 8, stride=2, rng=_rng())
        x = np.zeros((2, 4, 6, 6), dtype=np.float32)
        assert block.forward(x, training=True).shape == (2, 8, 3, 3)

    def test_gradient_flows_through_both_branches(self):
        block = BasicBlock(2, 2, rng=_rng())
        check_input_gradient(
            block, np.random.default_rng(3).normal(size=(2, 2, 4, 4)), rtol=5e-2
        )

    def test_downsample_gradient(self):
        block = BasicBlock(2, 4, stride=2, rng=_rng())
        check_input_gradient(
            block, np.random.default_rng(4).normal(size=(2, 2, 4, 4)), rtol=5e-2
        )

    def test_shortcut_is_identity_when_shapes_match(self):
        from repro.nn import Identity

        assert isinstance(BasicBlock(4, 4, rng=_rng()).shortcut, Identity)
        assert isinstance(BasicBlock(4, 8, stride=2, rng=_rng()).shortcut, PadShortcut)


class TestBuildResnet:
    def test_depth_formula(self):
        assert resnet_depth_blocks(8) == 1
        assert resnet_depth_blocks(110) == 18
        with pytest.raises(ValueError):
            resnet_depth_blocks(10)
        with pytest.raises(ValueError):
            resnet_depth_blocks(2)

    def test_parameter_count_scales_with_depth(self):
        small = sum(p.size for p in build_resnet(8, base_width=8).parameters())
        large = sum(p.size for p in build_resnet(20, base_width=8).parameters())
        assert large > 2 * small

    def test_output_shape(self):
        model = build_resnet(8, base_width=4)
        out = model.forward(np.zeros((3, 3, 16, 16), dtype=np.float32))
        assert out.shape == (3, 10)

    def test_deterministic_initialization(self):
        a = build_resnet(8, base_width=4, seed=5).state_dict()
        b = build_resnet(8, base_width=4, seed=5).state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = build_resnet(8, base_width=4, seed=1).state_dict()
        b = build_resnet(8, base_width=4, seed=2).state_dict()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_unique_parameter_names(self):
        names = [p.name for p in build_resnet(20, base_width=4).parameters()]
        assert len(names) == len(set(names))

    def test_stage_widths(self):
        model = build_resnet(8, base_width=4)
        params = {p.name: p for p in model.parameters()}
        assert params["stage0/block0/conv1/weight"].shape[0] == 4
        assert params["stage1/block0/conv1/weight"].shape[0] == 8
        assert params["stage2/block0/conv1/weight"].shape[0] == 16

    def test_resnet110_topology_constructs(self):
        # The paper's actual depth; construct-only (too slow to train here).
        model = build_resnet(110, base_width=16)
        blocks = sum(1 for p in model.parameters() if p.name.endswith("conv1/weight"))
        assert blocks == 54  # 18 blocks/stage * 3 stages
        # 2 convs/block * 54 + stem + fc = 110 weighted layers.
        weighted = sum(
            1
            for p in model.parameters()
            if p.name.endswith(("conv1/weight", "conv2/weight", "conv/weight", "fc/weight"))
        )
        assert weighted == 110

    def test_state_dict_roundtrip(self):
        model = build_resnet(8, base_width=4, seed=3)
        state = model.state_dict()
        other = build_resnet(8, base_width=4, seed=9)
        other.load_state_dict(state)
        for name, value in other.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_load_state_dict_missing_key(self):
        model = build_resnet(8, base_width=4)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        model = build_resnet(8, base_width=4)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestBuildMlp:
    def test_shapes(self):
        model = build_mlp(48, (16, 8))
        out = model.forward(np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_trains_on_toy_problem(self):
        from repro.nn import ConstantLR, MomentumSGD
        from repro.nn.loss import SoftmaxCrossEntropy, accuracy

        rng = np.random.default_rng(5)
        x = rng.normal(size=(128, 8)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.int64)
        model = build_mlp(8, (16,), seed=0)
        optimizer = MomentumSGD()
        loss_fn = SoftmaxCrossEntropy()
        for _ in range(60):
            logits = model.forward(x, training=True)
            loss_fn.forward(logits, y)
            model.zero_grad()
            model.backward(loss_fn.backward())
            optimizer.step(model.parameters(), 0.05)
        assert accuracy(model.forward(x), y) > 0.95
