"""The strided-slice conv lowering equals the gather / ``np.add.at`` oracle.

Bit for bit, not to a tolerance: layer by layer over the geometry grid, and
end to end over one training step and one evaluation batch of each conv
model family.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.config import DEFAULT_CONFIG
from repro.nn import BatchNorm2d, Conv2d, SoftmaxCrossEntropy, build_vgg
from repro.nn import conv as conv_module
from repro.nn.functional import col2im, conv_output_size, im2col
from tests.nn import lowering_oracle as oracle

KERNELS, STRIDES, PADS = (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()  # tobytes() is C order


def check_parity(x: np.ndarray, kernel: int, stride: int, pad: int, rng) -> None:
    cols = im2col(x, kernel, stride, pad)
    assert cols.flags.c_contiguous  # the GEMM operand, not a view of one
    assert_same_bits(cols, oracle.im2col(x, kernel, stride, pad))
    grad_cols = rng.normal(size=cols.shape).astype(x.dtype)
    back = col2im(grad_cols, x.shape, kernel, stride, pad)
    assert back.flags.c_contiguous
    assert_same_bits(back, oracle.col2im(grad_cols, x.shape, kernel, stride, pad))


class TestOracleParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 16, 200])
    def test_geometry_grid(self, batch, dtype):
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 3, 7, 6)).astype(dtype)  # H != W
        for kernel, stride, pad in itertools.product(KERNELS, STRIDES, PADS):
            check_parity(x, kernel, stride, pad, rng)

    @given(
        shape=st.tuples(*[st.integers(1, 5)] * 2, *[st.integers(1, 9)] * 2),
        kernel=st.sampled_from(KERNELS),
        stride=st.sampled_from(STRIDES),
        pad=st.sampled_from(PADS),
        batch_minor=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_any_shape_and_memory_order(
        self, shape, kernel, stride, pad, batch_minor, seed
    ):
        n, c, h, w = shape
        if min(h, w) + 2 * pad < kernel:
            with pytest.raises(ValueError, match="non-positive conv output"):
                im2col(np.zeros(shape, dtype=np.float32), kernel, stride, pad)
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape).astype(np.float32)
        if batch_minor:  # what Conv2d.forward hands the next conv
            x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        check_parity(x, kernel, stride, pad, rng)


def _train_step_and_eval(model, shape, seed):
    """(loss, grads, BN running stats, eval logits) of one step + one eval."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(np.float32)
    y = rng.integers(0, 10, size=shape[0])
    loss_fn = SoftmaxCrossEntropy()
    loss = loss_fn.forward(model.forward(x, training=True), y)
    model.backward(loss_fn.backward())
    eval_x = rng.normal(size=(200, *shape[1:])).astype(np.float32)
    return (
        loss,
        {p.name: p.grad for p in model.parameters()},
        [
            stat
            for m in model.iter_modules()
            if isinstance(m, BatchNorm2d)
            for stat in (m.running_mean, m.running_var)
        ],
        model.forward(eval_x, training=False),
    )


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize(
        "factory",
        [
            DEFAULT_CONFIG.model_factory(),
            lambda: build_vgg(image_size=DEFAULT_CONFIG.image_size, seed=0),
        ],
        ids=["resnet14", "vgg"],
    )
    def test_training_step_and_eval_logits(self, factory, monkeypatch):
        size = DEFAULT_CONFIG.image_size
        shape = (DEFAULT_CONFIG.batch_size, 3, size, size)
        loss, grads, stats, logits = _train_step_and_eval(factory(), shape, seed=7)

        monkeypatch.setattr(conv_module, "im2col", oracle.im2col)
        monkeypatch.setattr(conv_module, "col2im", oracle.col2im)
        ref_loss, ref_grads, ref_stats, ref_logits = _train_step_and_eval(
            factory(), shape, seed=7
        )

        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys() and len(grads) > 10
        for name, grad in grads.items():
            assert_same_bits(grad, ref_grads[name])
        assert len(stats) == len(ref_stats) > 0
        for stat, ref in zip(stats, ref_stats):
            assert_same_bits(stat, ref)
        assert_same_bits(logits, ref_logits)


class TestConvMemoryOrder:
    def test_forward_is_batch_minor_and_backward_is_nchw(self):
        """Pinned because reductions downstream (batch norm) round by memory
        order: the golden traces move if either of these changes."""
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        out = conv.forward(np.ones((5, 3, 6, 6), dtype=np.float32), training=True)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        assert conv.backward(np.ones_like(out)).flags.c_contiguous


class TestGeometryValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"kernel": 0}, "kernel must be >= 1, got 0"),
            ({"stride": 0}, "stride must be >= 1, got 0"),
            ({"stride": -2}, "stride must be >= 1, got -2"),
            ({"pad": -1}, "pad must be >= 0, got -1"),
        ],
    )
    def test_bad_value_is_named(self, kwargs, match):
        geometry = {"kernel": 3, "stride": 1, "pad": 1, **kwargs}
        with pytest.raises(ValueError, match=match):
            conv_output_size(8, **geometry)
        with pytest.raises(ValueError, match=match):
            Conv2d(2, 2, rng=np.random.default_rng(0), **geometry)
