"""Layer-level correctness: forward semantics and analytic gradients."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.functional import col2im, conv_output_size, im2col
from tests.nn.gradcheck import check_input_gradient, check_parameter_gradients


def _rng():
    return np.random.default_rng(0)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, rng=_rng())
        out = conv.forward(np.zeros((2, 3, 9, 9), dtype=np.float32))
        assert out.shape == (2, 8, 5, 5)

    def test_matches_direct_convolution(self):
        conv = Conv2d(2, 3, 3, stride=1, rng=_rng())
        x = np.random.default_rng(1).normal(size=(1, 2, 5, 5)).astype(np.float32)
        out = conv.forward(x)
        # Direct (slow) convolution for one output position.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for f in range(3):
            expected = float(
                (padded[0, :, 1:4, 2:5] * conv.weight.data[f]).sum()
            )
            assert out[0, f, 1, 2] == pytest.approx(expected, rel=1e-4)

    def test_input_gradient(self):
        conv = Conv2d(2, 3, 3, stride=1, rng=_rng())
        check_input_gradient(conv, np.random.default_rng(2).normal(size=(2, 2, 5, 5)))

    def test_strided_input_gradient(self):
        conv = Conv2d(2, 2, 3, stride=2, rng=_rng())
        check_input_gradient(conv, np.random.default_rng(3).normal(size=(1, 2, 7, 7)))

    def test_parameter_gradients(self):
        conv = Conv2d(2, 2, 3, rng=_rng())
        check_parameter_gradients(
            conv, np.random.default_rng(4).normal(size=(2, 2, 4, 4))
        )

    def test_channel_mismatch_rejected(self):
        conv = Conv2d(3, 4, 3, rng=_rng())
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((1, 2, 5, 5), dtype=np.float32))

    def test_backward_requires_training_forward(self):
        conv = Conv2d(1, 1, 3, rng=_rng())
        conv.forward(np.zeros((1, 1, 4, 4), dtype=np.float32), training=False)
        with pytest.raises(RuntimeError, match="training"):
            conv.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    def test_bias_free(self):
        conv = Conv2d(1, 1, 3, rng=_rng())
        assert [p.name for p in conv.parameters()] == ["conv/weight"]

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_same_padding_keeps_the_spatial_size(self, kernel):
        conv = Conv2d(2, 3, kernel, rng=_rng())
        assert conv.pad == kernel // 2
        out = conv.forward(np.zeros((2, 2, 7, 6), dtype=np.float32))
        assert out.shape == (2, 3, 7, 6)


class TestIm2Col:
    def test_adjoint_property(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        ((_, cols),) = im2col(x, kernel=3, stride=2, pad=1)
        y = rng.normal(size=cols.shape).astype(np.float32)
        back = col2im(y, x.shape, kernel=3, stride=2, pad=1)
        assert float((cols * y).sum()) == pytest.approx(
            float((x * back).sum()), rel=1e-4
        )

    def test_output_size_formula(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestBatchNorm2d:
    def test_normalizes_batch(self):
        bn = BatchNorm2d(4)
        x = np.random.default_rng(6).normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(
            np.float32
        )
        out = bn.forward(x, training=True)
        assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(4), abs=1e-5)
        assert out.var(axis=(0, 2, 3)) == pytest.approx(np.ones(4), abs=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(7).normal(1.0, 2.0, size=(16, 2, 4, 4)).astype(
            np.float32
        )
        for _ in range(60):  # the running stats converge on the batch's
            bn.forward(x, training=True)
        out = bn.forward(x, training=False)
        assert abs(float(out.mean())) < 0.05

    def test_running_stats_move_a_tenth_of_the_way(self):
        """The EMA keeps 0.9 of the running statistics per training batch."""
        bn = BatchNorm2d(2)
        x = np.random.default_rng(13).normal(1.0, 2.0, size=(8, 2, 3, 3)).astype(
            np.float32
        )
        bn.forward(x, training=True)
        np.testing.assert_allclose(
            bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-5
        )

    def test_input_gradient(self):
        bn = BatchNorm2d(3)
        check_input_gradient(
            bn, np.random.default_rng(8).normal(size=(4, 3, 3, 3)), rtol=5e-2
        )

    def test_parameter_gradients(self):
        bn = BatchNorm2d(2)
        check_parameter_gradients(
            bn, np.random.default_rng(9).normal(size=(4, 2, 3, 3))
        )

    def test_params_flagged_no_weight_decay(self):
        bn = BatchNorm2d(4)
        assert all(not p.weight_decay for p in bn.parameters())

    def test_stats_roundtrip(self):
        bn1 = BatchNorm2d(3)
        bn1.forward(
            np.random.default_rng(10).normal(size=(4, 3, 2, 2)).astype(np.float32),
            training=True,
        )
        bn2 = BatchNorm2d(3)
        bn2.load_stats(bn1.stats_dict())
        np.testing.assert_array_equal(bn2.running_mean, bn1.running_mean)
        np.testing.assert_array_equal(bn2.running_var, bn1.running_var)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(np.zeros((2, 4, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("dtype", ["float16", "int32"])
    def test_dtype_np_mean_would_widen_rejected(self, dtype):
        """The statistics copy ``np.mean`` / ``np.var`` for float32 / float64;
        those sum float16 in float32 and promote integers to float64."""
        x = np.ones((2, 3, 4, 4), dtype=dtype)
        for training in (True, False):
            with pytest.raises(ValueError, match=rf"float32/64 \(N, 3, .* got {dtype}"):
                BatchNorm2d(3).forward(x, training=training)

    @pytest.mark.parametrize(
        "key, value, match",
        [
            # (1,) used to broadcast silently over all eight channels
            ("running_mean", np.zeros(1), r": shape \(1,\) != \(8,\)"),
            ("running_var", np.ones(1), r": shape \(1,\) != \(8,\)"),
            # other lengths used to fail unnamed, at the next forward
            ("running_var", np.ones(4), r": shape \(4,\) != \(8,\)"),
            ("running_mean", np.zeros((8, 1)), r": shape \(8, 1\) != \(8,\)"),
            # these used to give a NaN output and one RuntimeWarning
            ("running_var", [1, 1, -0.5, 1, 1, 1, 1, 1], r"\[2\] = .*-0\.5"),
            ("running_var", [1, 1, 1, np.nan, 1, 1, 1, 1], r"\[3\] = .*nan"),
            ("running_var", [np.inf, 1, 1, 1, 1, 1, 1, 1], r"\[0\] = .*inf"),
            ("running_mean", [0, 0, 0, 0, 0, 0, 0, np.nan], r"\[7\] = .*nan"),
        ],
        ids=[
            "mean-broadcastable",
            "var-broadcastable",
            "var-too-short",
            "mean-2d",
            "var-negative",
            "var-nan",
            "var-inf",
            "mean-nan",
        ],
    )
    def test_load_stats_rejects_bad_statistics_by_name(self, key, value, match):
        bn = BatchNorm2d(8, name="stem/bn")
        before = bn.stats_dict()
        stats = {**before, key: np.asarray(value, dtype=np.float32)}
        with pytest.raises(ValueError, match=f"stem/bn/{key}{match}"):
            bn.load_stats(stats)
        np.testing.assert_array_equal(bn.running_mean, before["running_mean"])
        np.testing.assert_array_equal(bn.running_var, before["running_var"])

    def test_load_stats_copies_and_accepts_zero_variance(self):
        bn = BatchNorm2d(2)
        stats = {"running_mean": np.ones(2), "running_var": np.zeros(2)}
        bn.load_stats(stats)
        stats["running_mean"][0] = 9.0
        assert bn.running_mean.tolist() == [1.0, 1.0]
        assert bn.running_var.dtype == np.float32


class TestLinear:
    def test_affine_map(self):
        fc = Linear(3, 2, rng=_rng())
        x = np.ones((1, 3), dtype=np.float32)
        expected = fc.weight.data.sum(axis=1) + fc.bias.data
        np.testing.assert_allclose(fc.forward(x)[0], expected, rtol=1e-5)

    def test_gradients(self):
        fc = Linear(4, 3, rng=_rng())
        x = np.random.default_rng(11).normal(size=(5, 4))
        check_input_gradient(fc, x)
        check_parameter_gradients(fc, x)

    def test_has_a_bias_without_weight_decay(self):
        fc = Linear(4, 2, name="head", rng=_rng())
        assert [(p.name, p.weight_decay) for p in fc.parameters()] == [
            ("head/weight", True),
            ("head/bias", False),
        ]

    def test_shape_check(self):
        with pytest.raises(ValueError):
            Linear(4, 2, rng=_rng()).forward(np.zeros((1, 5), dtype=np.float32))


class TestActivationsAndPooling:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_gradient(self):
        check_input_gradient(
            ReLU(), np.random.default_rng(12).normal(size=(3, 4)) + 0.1
        )

    def test_identity_passthrough(self):
        x = np.ones((2, 2), dtype=np.float32)
        layer = Identity()
        assert layer.forward(x) is x
        assert layer.backward(x) is x

    def test_global_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = GlobalAvgPool2d().forward(x)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(7.5)

    def test_global_avg_pool_gradient(self):
        check_input_gradient(
            GlobalAvgPool2d(), np.random.default_rng(13).normal(size=(2, 3, 4, 4))
        )

    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_gradient(self):
        check_input_gradient(
            AvgPool2d(2), np.random.default_rng(14).normal(size=(2, 2, 4, 4))
        )

    def test_avg_pool_divisibility(self):
        with pytest.raises(ValueError):
            AvgPool2d(3).forward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = np.random.default_rng(15).normal(size=(2, 3, 4)).astype(np.float32)
        out = f.forward(x, training=True)
        assert out.shape == (2, 12)
        assert f.backward(out).shape == x.shape


class TestSequential:
    def test_chains_forward_and_backward(self):
        rng = _rng()
        model = Sequential(Linear(4, 8, name="a", rng=rng), ReLU(), Linear(8, 2, name="b", rng=rng))
        x = np.random.default_rng(16).normal(size=(3, 4))
        check_input_gradient(model, x)

    def test_parameter_collection_order(self):
        rng = _rng()
        model = Sequential(Linear(2, 2, name="a", rng=rng), Linear(2, 2, name="b", rng=rng))
        names = [p.name for p in model.parameters()]
        assert names == ["a/weight", "a/bias", "b/weight", "b/bias"]

    def test_indexing(self):
        rng = _rng()
        layers = [Linear(2, 2, name="x", rng=rng), ReLU()]
        model = Sequential(*layers)
        assert len(model) == 2
        assert model[1] is layers[1]
