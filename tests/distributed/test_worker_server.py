"""Unit tests for Worker and ParameterServer in isolation."""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import Augmenter, DatasetSpec, ShardBatcher, SyntheticImageDataset
from repro.distributed import ParameterServer, Worker
from repro.nn import ConstantLR, MomentumSGD, build_mlp
from repro.utils.seeding import derive_rng


#: The MLP's weights (192x32, 32x10) are above SMALL_TENSOR_THRESHOLD
#: elements, its biases (32, 10) below it.
def make_worker(scheme_name="3LC (s=1.00)", worker_id=0):
    dataset = SyntheticImageDataset(DatasetSpec(image_size=8, seed=0))
    images, labels = dataset.train_shard(worker_id, 32)
    model = build_mlp(3 * 8 * 8, (32,), seed=4)
    return Worker(
        worker_id,
        model,
        ShardBatcher(images, labels, 8, derive_rng(0, "b", worker_id)),
        Augmenter(derive_rng(0, "a", worker_id)),
        make_compressor(scheme_name, seed=0),
    )


def make_server(scheme_name="3LC (s=1.00)", num_workers=2):
    model = build_mlp(3 * 8 * 8, (32,), seed=4)
    return ParameterServer(
        model.parameters(),
        MomentumSGD(),
        ConstantLR(0.05),
        make_compressor(scheme_name, seed=0),
        num_workers,
    )


class TestWorker:
    def test_train_step_produces_all_tensors(self):
        worker = make_worker()
        batch = worker.train_step()
        assert set(batch.messages) == {p.name for p in worker.model.parameters()}
        assert batch.compute_seconds > 0
        assert batch.compress_seconds >= 0
        assert np.isfinite(batch.loss)

    def test_small_tensors_use_bypass(self):
        worker = make_worker()
        # MLP biases (<= 32 elements) bypass; weight matrices do not.
        bypassed = worker.stream.bypassed
        assert any(name.endswith("/bias") for name in bypassed)
        assert not any(name.endswith("/weight") for name in bypassed)

    def test_apply_pull_updates_local_model(self):
        worker = make_worker()
        name = worker.model.parameters()[0].name
        before = worker.model.state_dict()[name].copy()
        delta = np.ones_like(before)
        worker.apply_pull({name: delta})
        np.testing.assert_allclose(
            worker.model.state_dict()[name], before + 1.0, rtol=1e-6
        )

    def test_residual_norms_reported(self):
        worker = make_worker()
        worker.train_step()
        norms = worker.residual_norms()
        assert set(norms) == {p.name for p in worker.model.parameters()}
        # 3LC push contexts accumulate residuals on compressed tensors.
        assert any(v > 0 for k, v in norms.items() if k not in worker.stream.bypassed)

    def test_missing_gradient_detected(self, monkeypatch):
        worker = make_worker()
        # Sabotage the backward pass so no gradients are produced.
        monkeypatch.setattr(worker.model, "backward", lambda grad: grad)
        with pytest.raises(RuntimeError, match="missing gradient"):
            worker.train_step()


class TestParameterServer:
    def test_step_count_advances(self):
        server = make_server(num_workers=1)
        worker = make_worker()
        batch = worker.train_step()
        assert server.global_step == 0
        server.step([batch.messages])
        assert server.global_step == 1

    def test_wrong_worker_count_rejected(self):
        server = make_server(num_workers=2)
        worker = make_worker()
        batch = worker.train_step()
        # More pushes than workers, or none at all, is a protocol error;
        # fewer is legal (backup-worker barriers drop pushes).
        with pytest.raises(ValueError, match="pushes"):
            server.step([batch.messages] * 3)
        with pytest.raises(ValueError, match="pushes"):
            server.step([])
        with pytest.raises(ValueError, match="divisor"):
            server.step([batch.messages], divisor=0)

    def test_pull_messages_cover_all_tensors(self):
        server = make_server(num_workers=1)
        worker = make_worker()
        pull = server.step([worker.train_step().messages])
        assert set(pull.messages) == set(server.params)
        assert pull.compress_seconds >= 0
        assert pull.decompress_seconds >= 0

    def test_state_dict_is_a_copy(self):
        server = make_server()
        state = server.state_dict()
        name = next(iter(state))
        state[name][...] = 123.0
        assert not np.allclose(server.params[name].data, 123.0)

    def test_deferred_tensors_leave_model_unchanged(self):
        server = make_server("2 local steps", num_workers=1)
        worker = make_worker("2 local steps")
        before = server.state_dict()
        # First local step: everything deferred (period 2).
        server.step([worker.train_step().messages])
        mid = server.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], mid[name])
        # Second local step transmits and updates.
        server.step([worker.train_step().messages])
        after = server.state_dict()
        assert any(not np.array_equal(mid[k], after[k]) for k in after)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            make_server(num_workers=0)


class TestPushPullSymmetry:
    def test_worker_and_server_agree_on_bypass_set(self):
        worker = make_worker()
        server = make_server()
        assert worker.stream.bypassed == server.bypassed
