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
from repro.nn import BatchNorm2d, Conv2d, SoftmaxCrossEntropy, build_resnet, build_vgg
from repro.nn import conv as conv_module
from repro.nn.functional import col2im, conv_output_size, im2col
from tests.nn import layers_oracle
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


def _train_steps_and_eval(model, shape, seed, steps=1):
    """Everything ``steps`` SGD steps and one evaluation batch produce: losses,
    input and parameter gradients, BN running statistics, eval logits."""
    rng = np.random.default_rng(seed)
    loss_fn = SoftmaxCrossEntropy()
    run = {}
    for step in range(steps):
        x = rng.normal(size=shape).astype(np.float32)
        y = rng.integers(0, 10, size=shape[0])
        run[f"loss/{step}"] = np.asarray(
            loss_fn.forward(model.forward(x, training=True), y)
        )
        model.zero_grad()
        run[f"input-grad/{step}"] = model.backward(loss_fn.backward())
        for p in model.parameters():
            run[f"grad/{step}/{p.name}"] = p.grad
            p.data -= np.float32(0.05) * p.grad
    bns = [m for m in model.iter_modules() if isinstance(m, BatchNorm2d)]
    for index, bn in enumerate(bns):
        run[f"running_mean/{index}"] = bn.running_mean
        run[f"running_var/{index}"] = bn.running_var
    eval_x = rng.normal(size=(200, *shape[1:])).astype(np.float32)
    run["eval-logits"] = model.forward(eval_x, training=False)
    return run


def _assert_same_run(run, reference):
    assert run.keys() == reference.keys() and len(run) > 20
    for label, value in run.items():
        assert_same_bits(value, reference[label])


_SIZE = DEFAULT_CONFIG.image_size
_BATCH = (DEFAULT_CONFIG.batch_size, 3, _SIZE, _SIZE)
_RESNET14 = pytest.param(DEFAULT_CONFIG.model_factory(), _BATCH, id="resnet14")
_VGG = pytest.param(lambda: build_vgg(image_size=_SIZE, seed=0), _BATCH, id="vgg")


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("factory, shape", [_RESNET14, _VGG])
    def test_training_step_and_eval_logits(self, factory, shape, monkeypatch):
        run = _train_steps_and_eval(factory(), shape, seed=7)
        monkeypatch.setattr(conv_module, "im2col", oracle.im2col)
        monkeypatch.setattr(conv_module, "col2im", oracle.col2im)
        _assert_same_run(run, _train_steps_and_eval(factory(), shape, seed=7))

    @pytest.mark.parametrize(
        "factory, shape",
        [
            _RESNET14,
            _VGG,
            # the model the golden traces are recorded on
            pytest.param(
                lambda: build_resnet(8, base_width=4), (8, 3, 12, 12), id="resnet8w4"
            ),
            # odd, non-square, and an identity block after the padded one
            pytest.param(
                lambda: build_resnet(14, base_width=3), (5, 3, 9, 7), id="resnet14-odd"
            ),
        ],
    )
    def test_single_pass_layers_equal_the_multi_pass_oracle(self, factory, shape):
        """Four SGD steps and one evaluation batch, against the same model
        assembled from ``layers_oracle``: the ReLU / BatchNorm / shortcut
        rewrite moved no bit, the order each reduction reads included."""
        run = _train_steps_and_eval(factory(), shape, seed=7, steps=4)
        with layers_oracle.installed():
            reference_model = factory()
        assert type(reference_model[2]) is layers_oracle.ReLU
        _assert_same_run(run, _train_steps_and_eval(reference_model, shape, 7, 4))


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
