"""The single-pass elementwise layers equal the multi-pass oracle bit for bit.

Outputs, input gradients, parameter gradients and running statistics, in
training and in evaluation, over odd shapes, both memory orders of inputs
and gradients, and values including signed zeros and subnormals — and
while doing so no layer writes to its argument or to an array it returned
earlier. Whole models are held to the oracle in ``test_lowering.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import nn
from repro.nn import SoftmaxCrossEntropy, build_resnet, build_vgg, profile_backward
from tests.nn import layers_oracle as oracle
from tests.nn.test_lowering import assert_same_bits

TINY = np.array([0.0, -0.0, 1e-40, -1e-40, 1e-45, -1e-45], dtype=np.float32)
TINY_AND_INF = np.concatenate([TINY, np.array([np.inf, -np.inf], dtype=np.float32)])

# Batch 1, 1x1 spatial, one channel: where an axis drops out of a layout.
CORNER_SHAPES = [(1, 3, 4, 5), (4, 3, 1, 1), (3, 1, 1, 7), (1, 1, 1, 1), (5, 2, 1, 3)]
case = dict(
    shape=st.sampled_from(CORNER_SHAPES)
    | st.tuples(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 7), st.integers(1, 7)
    ),
    x_batch_minor=st.booleans(),
    grad_batch_minor=st.booleans(),
    seed=st.integers(0, 2**16),
)


def tensor(rng, shape, batch_minor, specials=TINY):
    """Normal values, a quarter of them replaced by ``specials``, in C order or
    as the batch-minor view ``Conv2d.forward`` returns."""
    picks = rng.integers(0, 4 * len(specials), size=shape)
    values = np.where(
        picks < len(specials),
        specials[picks % len(specials)],
        rng.normal(size=shape).astype(np.float32),
    )
    if batch_minor:
        values = np.ascontiguousarray(values.transpose(1, 2, 3, 0))
        values = values.transpose(3, 0, 1, 2)
    return values


def running_stats(layer):
    return [
        stat
        for m in layer.iter_modules()
        if isinstance(m, nn.BatchNorm2d)
        for stat in (m.running_mean, m.running_var)
    ]


def randomize_batchnorms(layer, seed):
    rng = np.random.default_rng(seed)
    for m in layer.iter_modules():
        if isinstance(m, nn.BatchNorm2d):
            m.gamma.data[...] = rng.normal(size=m.channels)
            m.beta.data[...] = rng.normal(size=m.channels)
            m.running_mean = rng.normal(size=m.channels).astype(np.float32)
            m.running_var = rng.uniform(0.5, 2.0, size=m.channels).astype(np.float32)


class Unchanged:
    """Byte snapshots of arrays a layer must not write to."""

    def __init__(self):
        self.held = []

    def hold(self, what, array):
        self.held.append((what, array, array.tobytes()))
        return array

    def check(self, after):
        for what, array, snapshot in self.held:
            assert array.tobytes() == snapshot, f"{what} changed by {after}"


def observe(layer, x, x_eval, grad_of):
    """Everything observable of a training forward, an evaluation forward on
    another batch in between (it must leave the cached state alone), and the
    backward — while no array the layer was given or has returned changes."""
    keep = Unchanged()
    keep.hold("the input", x)
    keep.hold("the eval input", x_eval)
    out = keep.hold("the training output", layer.forward(x, training=True))
    keep.check("forward(training=True)")
    eval_out = keep.hold("the eval output", layer.forward(x_eval, training=False))
    keep.check("forward(training=False)")
    grad = keep.hold("the incoming gradient", grad_of(out.shape))
    layer.zero_grad()
    dx = keep.hold("the input gradient", layer.backward(grad))
    keep.check("backward")
    assert dx.flags.c_contiguous or not grad.flags.c_contiguous
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(grad)
    layer.forward(x_eval, training=True)
    layer.forward(x, training=False)
    keep.check("a later forward")
    return [out, eval_out, dx, *(p.grad for p in layer.parameters())]


def assert_parity(
    new, ref, shape, x_batch_minor, grad_batch_minor, seed, specials=TINY
):
    randomize_batchnorms(new, seed)
    randomize_batchnorms(ref, seed)
    observed = []
    for layer in (new, ref):
        rng = np.random.default_rng(seed)
        x = tensor(rng, shape, x_batch_minor, specials)
        x_eval = tensor(rng, shape, x_batch_minor, specials)

        def grad_of(out_shape, rng=rng):
            if len(out_shape) != 4:
                return rng.normal(size=out_shape).astype(np.float32)
            return tensor(rng, out_shape, grad_batch_minor)  # inf * 0 is NaN

        observed.append(observe(layer, x, x_eval, grad_of) + running_stats(layer))
    assert len(observed[0]) == len(observed[1])
    for actual, expected in zip(*observed):
        assert_same_bits(actual, expected)


class TestLayerParity:
    @given(**case)
    def test_relu(self, **drawn):
        assert_parity(nn.ReLU(), oracle.ReLU(), specials=TINY_AND_INF, **drawn)

    @given(**case)
    def test_batch_norm(self, shape, **drawn):
        layers = nn.BatchNorm2d(shape[1]), oracle.BatchNorm2d(shape[1])
        assert_parity(*layers, shape=shape, **drawn)

    @given(stride=st.integers(1, 3), pad=st.integers(0, 3), **case)
    def test_pad_shortcut(self, stride, pad, shape, **drawn):
        args = (shape[1], shape[1] + pad, stride)
        layers = nn.PadShortcut(*args), oracle.PadShortcut(*args)
        assert_parity(*layers, shape=shape, specials=TINY_AND_INF, **drawn)

    @given(**case)
    def test_global_avg_pool(self, **drawn):
        assert_parity(nn.GlobalAvgPool2d(), oracle.GlobalAvgPool2d(), **drawn)

    @given(widen=st.integers(0, 3), stride=st.integers(1, 2), **case)
    def test_basic_block(self, widen, stride, shape, seed, x_batch_minor, **_):
        """Identity shortcut (the input is shared with the main branch),
        zero-padded shortcut, and the strided view of ``x`` in between.

        Only with the C-order gradient every ``backward`` in the package
        hands on (``observe`` pins that): fed a batch-minor one,
        ``relu_out.backward`` follows its C-order mask where the oracle
        followed the gradient, and the reductions in ``bn2.backward`` would
        read another order than the oracle's.
        """
        args = dict(stride=stride, name="b")
        new = nn.BasicBlock(
            shape[1], shape[1] + widen, rng=np.random.default_rng(seed), **args
        )
        with oracle.installed():
            ref = oracle.BasicBlock(
                shape[1], shape[1] + widen, rng=np.random.default_rng(seed), **args
            )
        assert type(ref.bn1) is oracle.BatchNorm2d and type(new.bn1) is nn.BatchNorm2d
        assert_parity(new, ref, shape, x_batch_minor, False, seed)


class TestNanReachesTheLoss:
    """The one intended difference from the oracle: ``np.where(x > 0, x, 0)``
    maps NaN to 0, so a model with a NaN weight reported a finite loss."""

    def test_relu_propagates_nan(self):
        x = np.array([[np.nan, -1.0, 2.0]], dtype=np.float32)
        for training in (False, True):
            out = nn.ReLU().forward(x, training=training)
            assert np.isnan(out[0, 0]) and out[0, 1] == 0 and out[0, 2] == 2
            assert oracle.ReLU().forward(x, training=training)[0, 0] == 0

    @pytest.mark.parametrize(
        "build, poisoned, shape",
        [
            (
                lambda: build_resnet(8, base_width=4),
                "stage0/block0/conv1/weight",
                (8, 3, 12, 12),
            ),
            (lambda: nn.build_mlp(3 * 8 * 8, (16, 16)), "fc0/weight", (8, 3, 8, 8)),
        ],
        ids=["resnet8-conv", "mlp-linear"],
    )
    def test_one_nan_weight_gives_a_non_finite_loss(self, build, poisoned, shape):
        model = build()
        {p.name: p for p in model.parameters()}[poisoned].data.flat[0] = np.nan
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape).astype(np.float32)
        y = rng.integers(0, 10, size=shape[0])
        loss_fn = SoftmaxCrossEntropy()
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(loss_fn.forward(model.forward(x, training=True), y))
            assert not np.isfinite(loss_fn.forward(model.forward(x, training=False), y))


class TestBackwardTimeline:
    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: build_resnet(8, base_width=4), (4, 3, 8, 8)),
            (lambda: build_vgg(image_size=8, base_width=4), (4, 3, 8, 8)),
        ],
        ids=["resnet8", "vgg"],
    )
    def test_profile_backward_sees_the_same_leaves(self, build, shape):
        """Leaf order, labels and ``params`` feed ``--sim-overlap``."""
        rng = np.random.default_rng(0)
        images = rng.normal(size=shape).astype(np.float32)
        labels = rng.integers(0, 10, size=shape[0])
        model = build()
        timeline = profile_backward(model, images, labels, repeats=1)
        with oracle.installed():
            reference = profile_backward(build(), images, labels, repeats=1)
        assert [(t.label, t.params) for t in timeline.layers] == [
            (t.label, t.params) for t in reference.layers
        ]
        assert timeline.layers[0].label == "linear:0"
        assert sorted(name for t in timeline.layers for name in t.params) == sorted(
            p.name for p in model.parameters()
        )
