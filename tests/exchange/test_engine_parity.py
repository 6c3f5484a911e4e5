"""Engine parity: the unified BSP path must reproduce the seed trainer.

Two independent checks hold the engine to the seed's numerics:

* ``golden_bsp_trace.json`` was captured by running the *original*
  (pre-engine) single-server BSP trainer; the engine's default
  configuration must reproduce its per-step train loss, push/pull wire
  bytes, and final model divergence.
* A live re-implementation of the seed's orchestration loop — built from
  the same ``Worker`` / ``ParameterServer`` / ``FullBarrier`` primitives
  the seed composed — must match the engine step-for-step, bit-for-bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import Augmenter, DatasetSpec, ShardBatcher, SyntheticImageDataset
from repro.distributed import FullBarrier, ParameterServer, Worker
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, MomentumSGD, build_resnet
from repro.utils.seeding import SeedSequenceFactory

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_bsp_trace.json").read_text()
)

SCHEMES = sorted(GOLDEN)


def model_factory():
    return build_resnet(8, base_width=4, seed=7)


def make_cluster(scheme_name: str) -> ExchangeEngine:
    return ExchangeEngine(
        model_factory,
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, 8),
        EngineConfig(num_workers=2, batch_size=8, shard_size=32, cluster_seed=0),
    )


class SeedReferenceLoop:
    """The seed trainer's orchestration, reassembled from the primitives.

    This is the code the engine refactored away: explicit worker
    construction, shared-pull fan-out, and per-step byte accounting, in the
    seed's exact operation order.
    """

    def __init__(self, scheme_name: str):
        config = EngineConfig(num_workers=2, batch_size=8, shard_size=32, cluster_seed=0)
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        scheme = make_compressor(scheme_name, seed=0)
        seeds = SeedSequenceFactory(config.cluster_seed)

        reference_model = model_factory()
        self.workers = []
        for worker_id in range(config.num_workers):
            model = model_factory()
            model.load_state_dict(reference_model.state_dict())
            images, labels = dataset.train_shard(worker_id, config.shard_size)
            self.workers.append(
                Worker(
                    worker_id,
                    model,
                    ShardBatcher(
                        images, labels, config.batch_size, seeds.rng("batch", worker_id)
                    ),
                    Augmenter(seeds.rng("augment", worker_id)),
                    scheme,
                )
            )
        self.server = ParameterServer(
            reference_model.parameters(),
            MomentumSGD(),
            CosineDecay(0.05, 8),
            scheme,
            config.num_workers,
        )
        self.barrier = FullBarrier()
        self.losses: list[float] = []
        self.push_bytes: list[int] = []
        self.pull_bytes: list[int] = []

    def train(self, steps: int) -> None:
        for _ in range(steps):
            batches = [worker.train_step() for worker in self.workers]
            arrivals = {
                worker.worker_id: batches[i].compute_seconds
                for i, worker in enumerate(self.workers)
            }
            decision = self.barrier.decide(arrivals)
            accepted = [batches[i].messages for i in decision.accepted]
            pull_batch = self.server.step(accepted, divisor=len(decision.accepted))
            deltas = {}
            for name, result in pull_batch.messages.items():
                if result is None:
                    continue
                deltas[name] = self.server.decompress_pull(name, result.message)
            for worker in self.workers:
                worker.apply_pull(deltas)
            self.losses.append(float(np.mean([b.loss for b in batches])))
            self.push_bytes.append(
                sum(
                    r.message.wire_size
                    for b in batches
                    for r in b.messages.values()
                    if r is not None
                )
            )
            self.pull_bytes.append(
                sum(
                    r.message.wire_size
                    for r in pull_batch.messages.values()
                    if r is not None
                )
            )

    def model_divergence(self) -> float:
        global_state = self.server.state_dict()
        worst = 0.0
        for worker in self.workers:
            local = worker.model.state_dict()
            worst = max(
                worst,
                float(
                    np.sqrt(
                        sum(
                            np.sum((local[k] - global_state[k]) ** 2)
                            for k in global_state
                        )
                    )
                ),
            )
        return worst


@pytest.mark.parametrize("scheme_name", SCHEMES)
class TestGoldenTrace:
    """Engine vs. the trace captured from the pre-refactor implementation."""

    def test_loss_trajectory_matches_seed(self, scheme_name):
        cluster = make_cluster(scheme_name)
        cluster.train(GOLDEN[scheme_name]["steps"])
        losses = [log.train_loss for log in cluster.step_logs]
        np.testing.assert_allclose(
            losses, GOLDEN[scheme_name]["train_loss"], rtol=1e-6, atol=0
        )

    def test_wire_bytes_match_seed_exactly(self, scheme_name):
        golden = GOLDEN[scheme_name]
        cluster = make_cluster(scheme_name)
        cluster.train(golden["steps"])
        assert [s.push_bytes for s in cluster.traffic.steps] == golden["push_bytes"]
        assert [
            s.pull_bytes_shared for s in cluster.traffic.steps
        ] == golden["pull_bytes_shared"]
        assert [s.push_elements for s in cluster.traffic.steps] == golden["push_elements"]
        assert [s.pull_elements for s in cluster.traffic.steps] == golden["pull_elements"]

    def test_model_divergence_matches_seed(self, scheme_name):
        golden = GOLDEN[scheme_name]
        cluster = make_cluster(scheme_name)
        cluster.train(golden["steps"])
        assert cluster.model_divergence() == pytest.approx(
            golden["model_divergence"], rel=1e-6
        )


@pytest.mark.parametrize("scheme_name", ["3LC (s=1.00)", "32-bit float"])
class TestLiveReference:
    """Engine vs. a live seed-loop reassembly: must be bit-identical."""

    def test_bit_identical_trajectory_and_bytes(self, scheme_name):
        reference = SeedReferenceLoop(scheme_name)
        reference.train(6)
        cluster = make_cluster(scheme_name)
        cluster.train(6)

        assert [log.train_loss for log in cluster.step_logs] == reference.losses
        assert [s.push_bytes for s in cluster.traffic.steps] == reference.push_bytes
        assert [
            s.pull_bytes_shared for s in cluster.traffic.steps
        ] == reference.pull_bytes
        assert cluster.model_divergence() == reference.model_divergence()

    def test_global_models_bit_identical(self, scheme_name):
        reference = SeedReferenceLoop(scheme_name)
        reference.train(4)
        cluster = make_cluster(scheme_name)
        cluster.train(4)
        ref_state = reference.server.state_dict()
        eng_state = cluster.service.state_dict()
        assert ref_state.keys() == eng_state.keys()
        for name in ref_state:
            np.testing.assert_array_equal(ref_state[name], eng_state[name])
