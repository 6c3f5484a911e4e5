"""The strided-slice conv lowering equals the gather / ``np.add.at`` oracle.

Bit for bit, not to a tolerance: layer by layer over the geometry grid, and
end to end over one training step and one evaluation batch of each conv
model family.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.config import DEFAULT_CONFIG
from repro.nn import BatchNorm2d, Conv2d, SoftmaxCrossEntropy, build_resnet, build_vgg
from repro.nn import conv as conv_module
from repro.nn import functional
from repro.nn.functional import col2im, conv_output_size, im2col
from tests.nn import layers_oracle
from tests.nn import lowering_oracle as oracle

KERNELS, STRIDES, PADS = (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()  # tobytes() is C order


def full_cols(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """The whole column matrix: ``im2col``'s one block without a budget."""
    ((start, cols),) = im2col(x, kernel, stride, pad)
    assert start == 0
    return cols


def check_parity(x: np.ndarray, kernel: int, stride: int, pad: int, rng) -> None:
    cols = full_cols(x, kernel, stride, pad)
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
                full_cols(np.zeros(shape, dtype=np.float32), kernel, stride, pad)
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
_VGG = pytest.param(lambda: build_vgg(image_size=_SIZE), _BATCH, id="vgg")


def oracle_blocks(x, kernel, stride, pad, max_bytes=None):
    """The oracle lowering in ``im2col``'s block protocol: always one block."""
    yield 0, oracle.im2col(x, kernel, stride, pad)


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("factory, shape", [_RESNET14, _VGG])
    def test_training_step_and_eval_logits(self, factory, shape, monkeypatch):
        run = _train_steps_and_eval(factory(), shape, seed=7)
        monkeypatch.setattr(conv_module, "im2col", oracle_blocks)
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
        if "pad" in kwargs:  # a conv's pad is always kernel // 2
            return
        del geometry["pad"]
        with pytest.raises(ValueError, match=match):
            Conv2d(2, 2, rng=np.random.default_rng(0), **geometry)


class TestBlockedLowering:
    """``im2col``'s blocks are pure copies: for any budget they tile the
    oracle's column matrix exactly, in balanced runs of whole output rows."""

    @pytest.mark.parametrize("budget", [1, 3000, 1 << 40])
    def test_blocks_tile_the_column_matrix(self, budget):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 3, 9, 7)).astype(np.float32)
        for kernel, stride, pad in itertools.product(KERNELS, STRIDES, PADS):
            out_h = conv_output_size(9, kernel, stride, pad)
            row = conv_output_size(7, kernel, stride, pad) * 7
            blocks = []
            for start, cols in im2col(x, kernel, stride, pad, budget):
                assert cols.flags.c_contiguous
                assert start == sum(block.shape[1] for block in blocks)
                blocks.append(cols.copy())  # the next block reuses the buffer
            assert_same_bits(
                np.concatenate(blocks, axis=1), oracle.im2col(x, kernel, stride, pad)
            )
            rows = [block.shape[1] // row for block in blocks]
            assert all(block.shape[1] % row == 0 for block in blocks)
            assert max(rows) - min(rows) <= 1
            if budget == 1:
                assert rows == [1] * out_h
            if budget == 1 << 40:
                assert rows == [out_h]


def oracle_forward(conv: Conv2d, x: np.ndarray) -> np.ndarray:
    cols = oracle.im2col(x, conv.kernel, conv.stride, conv.pad)
    n, out_w = x.shape[0], conv_output_size(x.shape[3], conv.kernel, conv.stride, conv.pad)
    out = conv.weight.data.reshape(conv.out_channels, -1) @ cols
    return out.reshape(conv.out_channels, -1, out_w, n).transpose(3, 0, 1, 2)


def check_inference(conv: Conv2d, x: np.ndarray, monkeypatch) -> list[int]:
    """Inference equals a training forward and the oracle GEMM, memory order
    included; returns the column count of each block inference multiplied."""
    widths = []

    def counting(*args):
        for start, cols in functional.im2col(*args):
            widths.append(cols.shape[1])
            yield start, cols

    monkeypatch.setattr(conv_module, "im2col", counting)
    evaluated = conv.forward(x, training=False)
    blocks = list(widths)
    trained = conv.forward(x, training=True)
    assert len(widths) == len(blocks) + 1  # training lowers one block
    assert evaluated.strides == trained.strides
    assert_same_bits(evaluated, trained)
    assert_same_bits(evaluated, oracle_forward(conv, x))
    return blocks


def batch_minor(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


class TestBlockedInference:
    """``Conv2d.forward(training=False)`` multiplies blocks of output rows
    into one batch-minor buffer and equals the whole-matrix GEMM bit for bit."""

    @pytest.mark.parametrize("batch", [1, 7, 200])
    # an odd image and an even, non-square one: a stride-2 output rounds up
    # on one and not the other
    @pytest.mark.parametrize("image", [(9, 7), (8, 6)], ids=["9x7", "8x6"])
    @pytest.mark.parametrize("kernel, stride", list(itertools.product((1, 3), (1, 2))))
    @pytest.mark.parametrize("budget", ["module", "larger-than-layer"])
    def test_geometry_grid(self, kernel, stride, image, batch, budget, monkeypatch):
        if budget != "module":
            monkeypatch.setattr(conv_module, "BLOCK_BYTES", 1 << 40)
        rng = np.random.default_rng(batch)
        conv = Conv2d(5, 6, kernel, stride=stride, rng=rng)
        x = batch_minor(rng.normal(size=(batch, 5, *image)).astype(np.float32))
        assert len(check_inference(conv, x, monkeypatch)) == 1

    @pytest.mark.parametrize(
        "channels, kernel, stride, shape, rows_per_block",
        [
            # one output row per block: a row is over the module budget
            pytest.param(16, 3, 1, (1000, 16, 16, 16), [1] * 16, id="one-row"),
            pytest.param(16, 3, 2, (1000, 16, 16, 16), [1] * 8, id="one-row-s2"),
            # 13 output rows in 5 blocks: the block does not divide the rows
            pytest.param(16, 3, 1, (200, 16, 13, 11), [2, 3, 2, 3, 3], id="uneven"),
            pytest.param(32, 1, 1, (1000, 32, 16, 16), [2] * 8, id="pointwise"),
        ],
    )
    def test_blocks_at_the_module_budget(
        self, channels, kernel, stride, shape, rows_per_block, monkeypatch
    ):
        rng = np.random.default_rng(11)
        conv = Conv2d(shape[1], channels, kernel, stride=stride, rng=rng)
        x = batch_minor(rng.normal(size=shape).astype(np.float32))
        row = conv_output_size(shape[3], kernel, stride, kernel // 2) * shape[0]
        blocks = check_inference(conv, x, monkeypatch)
        assert [width // row for width in blocks] == rows_per_block

    @pytest.mark.parametrize(
        "channels, kernel, batch",
        [
            pytest.param(5, 3, 1671, id="c5k3"),
            pytest.param(4, 1, 8657, id="c4k1"),
        ],
    )
    @pytest.mark.parametrize("filters", [1, 2, 3])
    def test_layers_of_fewer_than_four_filters_lower_in_one_block(
        self, channels, kernel, batch, filters, monkeypatch
    ):
        """Their columns exceed the budget, but a block GEMM of so few rows
        rounds unlike the whole one (a 1-filter product is a ``gemv``)."""
        rng = np.random.default_rng(filters)
        conv = Conv2d(channels, filters, kernel, rng=rng)
        x = rng.normal(size=(batch, channels, 7, 7)).astype(np.float32)
        out_h = conv_output_size(7, kernel, 1, 0)
        assert 4 * channels * kernel**2 * out_h**2 * batch > conv_module.BLOCK_BYTES
        assert len(check_inference(conv, x, monkeypatch)) == 1

    @pytest.mark.parametrize(
        "factory, size",
        [
            pytest.param(lambda: build_resnet(8, base_width=4), 12, id="resnet8w4"),
            pytest.param(
                lambda: build_vgg(image_size=16, base_width=4), 16, id="vgg"
            ),
        ],
    )
    def test_whole_model_eval_logits(self, factory, size, monkeypatch):
        x = np.random.default_rng(5).normal(size=(1000, 3, size, size))
        x = x.astype(np.float32)
        logits = factory().forward(x, training=False)
        monkeypatch.setattr(conv_module, "im2col", oracle_blocks)
        assert_same_bits(logits, factory().forward(x, training=False))

    def test_peak_memory_is_bounded_by_the_block_budget(self):
        """The columns never exist whole: peak is the output, the padded
        input and at most one block (the whole matrix would be 9x the output)."""
        conv = Conv2d(8, 8, 3, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1000, 8, 16, 16)).astype(np.float32)
        padded_bytes = 8 * 18 * 18 * 1000 * 4
        tracemalloc.start()
        try:
            out = conv.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + padded_bytes + 2 * conv_module.BLOCK_BYTES
