"""Integration tests for the parameter-server training simulator."""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import ConstantLR, CosineDecay, build_mlp, build_resnet


def tiny_dataset():
    return SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))


def tiny_factory():
    return lambda: build_resnet(8, base_width=4, seed=7)


def tiny_config(**overrides):
    defaults = dict(num_workers=2, batch_size=8, shard_size=32, cluster_seed=0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_cluster(scheme_name="32-bit float", steps_for_schedule=10, **cfg):
    return ExchangeEngine(
        tiny_factory(),
        tiny_dataset(),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, steps_for_schedule),
        tiny_config(**cfg),
    )


class TestClusterMechanics:
    def test_step_advances_and_logs(self):
        cluster = make_cluster()
        log = cluster.train_step()
        assert cluster.global_step == 1
        assert log.step == 0
        assert np.isfinite(log.train_loss)
        assert log.learning_rate == pytest.approx(0.05)

    def test_traffic_recorded_per_step(self):
        cluster = make_cluster()
        cluster.train(3)
        assert len(cluster.traffic.steps) == 3
        first = cluster.traffic.steps[0]
        assert first.push_bytes > 0
        assert first.pull_bytes_shared > 0
        assert first.pull_fanout == 2
        assert first.model_elements == sum(
            p.size for p in tiny_factory()().parameters()
        )

    def test_evaluate_returns_finite_metrics(self):
        cluster = make_cluster()
        cluster.train(2)
        result = cluster.evaluate(test_size=100)
        assert 0.0 <= result.test_accuracy <= 1.0
        assert np.isfinite(result.test_loss)
        assert result.step == 2

    def test_eval_every(self):
        cluster = make_cluster()
        evals = cluster.train(4, eval_every=2, test_size=50)
        assert [e.step for e in evals] == [2, 4]

    def test_replicas_start_identical(self):
        cluster = make_cluster()
        states = [w.model.state_dict() for w in cluster.workers]
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])

    def test_baseline_keeps_replicas_exactly_synced(self):
        cluster = make_cluster("32-bit float")
        cluster.train(3)
        assert cluster.model_divergence() < 1e-5

    def test_lossy_pulls_cause_bounded_divergence(self):
        cluster = make_cluster("3LC (s=1.00)")
        cluster.train(5)
        divergence = cluster.model_divergence()
        assert divergence > 0
        # Error feedback keeps drift around/below the weight scale.
        global_norm = float(
            np.sqrt(
                sum(np.sum(v**2) for v in cluster.service.state_dict().values())
            )
        )
        assert divergence < global_norm

    def test_workers_share_pull_messages(self):
        """Both workers must apply identical pull deltas (shared compression,
        paper Figure 2b): their replicas stay identical to each other even
        though they drift from the global model."""
        cluster = make_cluster("3LC (s=1.50)")
        cluster.train(4)
        a = cluster.workers[0].model.state_dict()
        b = cluster.workers[1].model.state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_small_tensors_bypass_compression(self):
        cluster = make_cluster("3LC (s=1.00)")
        bn_names = [n for n in cluster.service.params if "/bn" in n or "gamma" in n]
        assert bn_names
        assert all(n in cluster.service.bypassed for n in bn_names)
        # Large conv tensors must NOT bypass.
        big = [
            n
            for n, p in cluster.service.params.items()
            if p.size >= SMALL_TENSOR_THRESHOLD
        ]
        assert big
        assert all(n not in cluster.service.bypassed for n in big)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(num_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(shard_size=4, batch_size=8)


class TestLocalStepsIntegration:
    def test_half_the_steps_transmit(self):
        cluster = make_cluster("2 local steps")
        cluster.train(6)
        wire = [s.wire_bytes for s in cluster.traffic.steps]
        # Odd global steps transmit, even ones are silent.
        assert wire[0] == 0 and wire[2] == 0 and wire[4] == 0
        assert wire[1] > 0 and wire[3] > 0 and wire[5] > 0

    def test_compression_ratio_near_two(self):
        cluster = make_cluster("2 local steps")
        cluster.train(6)
        # Slightly below 2.0: frame headers are charged on transmit steps.
        assert cluster.traffic.compression_ratio() == pytest.approx(2.0, rel=0.05)

    def test_model_still_updates(self):
        cluster = make_cluster("2 local steps")
        before = cluster.service.state_dict()
        cluster.train(2)
        after = cluster.service.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)


class TestGradientAggregation:
    def test_server_averages_worker_gradients(self):
        """With lossless compression, the server update must equal momentum
        SGD on the mean of per-worker gradients."""
        from repro.nn.optimizer import WEIGHT_DECAY

        cluster = make_cluster("32-bit float")
        # Capture gradients by running worker steps manually.
        batches = [w.train_step() for w in cluster.workers]
        grads = {}
        for name in cluster.service.params:
            per_worker = [
                cluster.service.scheme.decompress(b.messages[name].message)
                if name not in cluster.service.bypassed
                else b.messages[name].parts[name]
                for b in batches
            ]
            grads[name] = np.mean(per_worker, axis=0)
        before = cluster.service.state_dict()
        cluster.service.step([b.messages for b in batches])
        after = cluster.service.state_dict()

        for name, param in cluster.service.params.items():
            expected = before[name].copy()
            grad = grads[name]
            if param.weight_decay:
                grad = grad + WEIGHT_DECAY * before[name]
            expected -= 0.05 * grad  # first step: slot == grad, lr == 0.05
            np.testing.assert_allclose(after[name], expected, atol=1e-5)


class TestTrainingProgress:
    def test_loss_decreases_with_baseline(self):
        cluster = make_cluster("32-bit float", steps_for_schedule=30)
        cluster.train(30)
        losses = [log.train_loss for log in cluster.step_logs]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    @pytest.mark.parametrize(
        "scheme", ["3LC (s=1.00)", "MQE 1-bit int", "5% sparsification"]
    )
    def test_compressed_training_still_learns(self, scheme):
        cluster = make_cluster(scheme, steps_for_schedule=30)
        cluster.train(30)
        losses = [log.train_loss for log in cluster.step_logs]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
