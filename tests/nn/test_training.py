"""Loss, optimizer, and schedule tests."""

import math

import numpy as np
import pytest

from repro.nn import (
    ConstantLR,
    CosineDecay,
    MomentumSGD,
    Parameter,
    scale_lr_for_workers,
)
from repro.nn.loss import SoftmaxCrossEntropy, accuracy, softmax
from repro.nn.optimizer import MOMENTUM, WEIGHT_DECAY
from repro.nn.schedule import MIN_LR


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(5, 10)).astype(np.float32))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_numerically_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]], dtype=np.float32))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 3), dtype=np.float32), np.zeros(0)) == 0.0


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0]], dtype=np.float32)
        assert loss_fn.forward(logits, np.array([0])) < 1e-6

    def test_uniform_prediction_log_k(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10), dtype=np.float32)
        loss = loss_fn.forward(logits, np.arange(4))
        assert loss == pytest.approx(math.log(10), rel=1e-5)

    def test_gradient_matches_numerical(self, rng):
        loss_fn = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        labels = np.array([1, 4, 0])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-3
        for i in range(3):
            for j in range(5):
                logits[i, j] += eps
                up = loss_fn.forward(logits, labels)
                logits[i, j] -= 2 * eps
                down = loss_fn.forward(logits, labels)
                logits[i, j] += eps
                assert grad[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-3)

    def test_backward_requires_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_label_shape_validated(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(
                np.zeros((3, 2), dtype=np.float32), np.zeros((4,), dtype=np.int64)
            )


class TestMomentumSGD:
    def test_first_step_is_plain_sgd(self):
        p = Parameter("w", np.array([1.0], dtype=np.float32), weight_decay=False)
        p.grad = np.array([0.5], dtype=np.float32)
        MomentumSGD().step([p], lr=0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        p = Parameter("w", np.zeros(1, dtype=np.float32), weight_decay=False)
        opt = MomentumSGD()
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step([p], lr=1.0)
        # accum: 1.0 then 1 + MOMENTUM; total update 2 + MOMENTUM.
        assert p.data[0] == pytest.approx(-(2.0 + MOMENTUM))

    def test_weight_decay_applies_only_when_flagged(self):
        decayed = Parameter("a", np.array([2.0], dtype=np.float32), weight_decay=True)
        plain = Parameter("b", np.array([2.0], dtype=np.float32), weight_decay=False)
        for p in (decayed, plain):
            p.grad = np.zeros(1, dtype=np.float32)
        MomentumSGD().step([decayed, plain], lr=1.0)
        assert decayed.data[0] == pytest.approx(2.0 - WEIGHT_DECAY * 2.0)
        assert plain.data[0] == pytest.approx(2.0)

    def test_missing_gradient_raises(self):
        p = Parameter("w", np.zeros(1, dtype=np.float32))
        with pytest.raises(RuntimeError, match="no gradient"):
            MomentumSGD().step([p], lr=0.1)

    def test_hyperparameters_are_the_papers(self):
        assert (MOMENTUM, WEIGHT_DECAY) == (0.9, 1e-4)

    def test_state_dict(self):
        p = Parameter("w", np.zeros(2, dtype=np.float32))
        p.grad = np.ones(2, dtype=np.float32)
        opt = MomentumSGD()
        opt.step([p], lr=0.1)
        assert "w" in opt.state_dict()


class TestSchedules:
    def test_cosine_endpoints(self):
        sched = CosineDecay(0.1, 100)
        assert MIN_LR == 0.001
        assert sched(0) == pytest.approx(0.1)
        assert sched(100) == pytest.approx(MIN_LR)
        assert sched(50) == pytest.approx((0.1 + MIN_LR) / 2, rel=1e-6)

    def test_cosine_monotone_decreasing(self):
        sched = CosineDecay(0.1, 64)
        values = [sched(t) for t in range(65)]
        assert values == sorted(values, reverse=True)

    def test_cosine_clamps_out_of_range(self):
        sched = CosineDecay(0.1, 10)
        assert sched(-5) == sched(0)
        assert sched(99) == sched(10)

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineDecay(0.1, 0)
        with pytest.raises(ValueError):
            CosineDecay(MIN_LR / 10, 10)

    def test_constant(self):
        assert ConstantLR(0.3)(123) == 0.3

    def test_linear_scaling_rule(self):
        assert scale_lr_for_workers(0.1, 10) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            scale_lr_for_workers(0.1, 0)


class TestParameter:
    def test_accumulate_grad(self):
        p = Parameter("w", np.zeros(2, dtype=np.float32))
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_accumulate_shape_check(self):
        p = Parameter("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            p.accumulate_grad(np.ones(3, dtype=np.float32))

    def test_zero_grad(self):
        p = Parameter("w", np.zeros(1, dtype=np.float32))
        p.accumulate_grad(np.ones(1, dtype=np.float32))
        p.zero_grad()
        assert p.grad is None
