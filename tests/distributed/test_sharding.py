"""Tests for the sharded (multi-server) parameter service."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import make_compressor
from repro.distributed.server import ParameterServer
from repro.distributed.sharding import (
    ShardedParameterService,
    partition_parameters,
)
from repro.nn import ConstantLR, MomentumSGD
from repro.nn.parameter import Parameter


class TestPartition:
    def test_every_tensor_placed_exactly_once(self):
        sizes = {f"t{i}": (i + 1) * 10 for i in range(7)}
        shards = partition_parameters(sizes, 3)
        placed = [name for shard in shards for name in shard]
        assert sorted(placed) == sorted(sizes)

    def test_balanced_within_one_largest_tensor(self):
        sizes = {f"t{i}": s for i, s in enumerate([100, 90, 50, 40, 30, 20, 10])}
        shards = partition_parameters(sizes, 2)
        loads = [sum(sizes[n] for n in shard) for shard in shards]
        assert abs(loads[0] - loads[1]) <= max(sizes.values())

    def test_more_shards_than_tensors(self):
        shards = partition_parameters({"a": 5}, 4)
        assert sum(len(s) for s in shards) == 1
        assert len(shards) == 4

    def test_deterministic(self):
        sizes = {"a": 10, "b": 10, "c": 10}
        assert partition_parameters(sizes, 2) == partition_parameters(sizes, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            partition_parameters({"a": 1}, 0)
        with pytest.raises(ValueError, match="negative"):
            partition_parameters({"a": -1}, 2)

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            st.integers(0, 1000),
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_partition_property(self, sizes, num_shards):
        shards = partition_parameters(sizes, num_shards)
        assert len(shards) == num_shards
        placed = [n for s in shards for n in s]
        assert sorted(placed) == sorted(sizes)


def _make_params(rng):
    """Four tensors, each at or above ``SMALL_TENSOR_THRESHOLD`` elements:
    every one travels through the scheme's codec."""
    return [
        Parameter("conv/kernel", rng.normal(size=(12, 27)).astype(np.float32)),
        Parameter("fc/weight", rng.normal(size=(27, 10)).astype(np.float32)),
        Parameter("fc/bias", np.zeros(260, dtype=np.float32), weight_decay=False),
        Parameter("head/weight", rng.normal(size=(10, 30)).astype(np.float32)),
    ]


def _make_pushes(params, scheme, workers, steps, seed=0):
    """Per-step compressed pushes with persistent per-worker contexts."""
    rng = np.random.default_rng(seed)
    contexts = {
        (w, p.name): scheme.make_context(p.data.shape, key=("push", w, p.name))
        for w in range(workers)
        for p in params
    }
    all_steps = []
    for _ in range(steps):
        step_pushes = []
        for w in range(workers):
            push = {}
            for p in params:
                grad = rng.normal(0, 0.05, size=p.data.shape).astype(np.float32)
                push[p.name] = contexts[(w, p.name)].compress(grad)
            step_pushes.append(push)
        all_steps.append(step_pushes)
    return all_steps


@pytest.mark.parametrize("scheme_name", ["32-bit float", "3LC (s=1.00)"])
@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_sharded_service_matches_single_server(scheme_name, num_shards, rng):
    """Sharding is a pure partition: the global model evolves identically
    whether one server or K hold it (every codec context is per-tensor)."""
    scheme = make_compressor(scheme_name, seed=0)
    params = _make_params(rng)
    workers = 2
    single = ParameterServer(
        params, MomentumSGD(), ConstantLR(0.1), scheme, num_workers=workers
    )
    sharded = ShardedParameterService(
        params,
        MomentumSGD(),
        ConstantLR(0.1),
        scheme,
        num_workers=workers,
        num_shards=num_shards,
    )
    for step_pushes in _make_pushes(params, scheme, workers, steps=4, seed=3):
        single.step(step_pushes)
        sharded.step(step_pushes)
    a, b = single.state_dict(), sharded.state_dict()
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestLoadSpreading:
    def test_hot_link_divided_by_sharding(self, rng):
        scheme = make_compressor("32-bit float")
        params = _make_params(rng)
        workers = 4

        def hot_link(num_shards):
            service = ShardedParameterService(
                params, MomentumSGD(), ConstantLR(0.1), scheme,
                num_workers=workers, num_shards=num_shards,
            )
            pushes = _make_pushes(params, scheme, workers, steps=1)[0]
            pulls = service.step(pushes).messages
            # Each shard's link carries its tensors' pushes from every
            # worker and one copy of its shared pull per worker.
            link_bytes = [0] * num_shards
            for fanout, frames in [(1, push) for push in pushes] + [(workers, pulls)]:
                for name, frame in frames.items():
                    if frame is not None:
                        link_bytes[service.shard_of(name)] += fanout * frame.wire_size
            return max(link_bytes)

        one, three = hot_link(1), hot_link(3)
        # Three servers split the uplink; balance is within one tensor.
        assert three < 0.6 * one

    def test_pull_batch_covers_all_tensors(self, rng):
        scheme = make_compressor("3LC (s=1.00)")
        params = _make_params(rng)
        service = ShardedParameterService(
            params, MomentumSGD(), ConstantLR(0.1), scheme,
            num_workers=2, num_shards=2,
        )
        pushes = _make_pushes(params, scheme, 2, steps=1)[0]
        batch = service.step(pushes)
        assert set(batch.messages) == {p.name for p in params}

    def test_shard_of_and_validation(self, rng):
        params = _make_params(rng)
        service = ShardedParameterService(
            params, MomentumSGD(), ConstantLR(0.1),
            make_compressor("32-bit float"), num_workers=2, num_shards=2,
        )
        for p in params:
            assert 0 <= service.shard_of(p.name) < 2
        with pytest.raises(KeyError, match="unknown parameter"):
            service.shard_of("nope")
        with pytest.raises(ValueError, match="num_shards"):
            ShardedParameterService(
                params, MomentumSGD(), ConstantLR(0.1),
                make_compressor("32-bit float"), num_workers=2, num_shards=0,
            )
