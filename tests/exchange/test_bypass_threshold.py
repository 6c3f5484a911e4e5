"""The small-tensor bypass (paper §5.1) is one rule: below
``SMALL_TENSOR_THRESHOLD`` elements a tensor skips the lossy codec.

A tensor of exactly the threshold is compressed. Every topology's service,
every worker's push stream and every hier rack's uplink stream agree on
the same bypass set, which depends on nothing but the tensor sizes.
"""

import math

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.compression.fusion import FusionPlan, WireStream
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.exchange import TOPOLOGIES, EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet

SCHEME = "3LC (s=1.00)"
SHAPE_OVERRIDES = {
    "single": {},
    "sharded": dict(num_shards=2),
    "ring": {},
    "hier": dict(racks=2, rack_size=2),
}


@pytest.mark.parametrize(
    "shape",
    [(255,), (256,), (257,), (15, 17), (16, 16), (4, 8, 8)],
    ids=str,
)
def test_a_tensor_bypasses_only_below_the_threshold(shape):
    stream = WireStream(
        make_compressor(SCHEME, seed=0),
        {"t": shape},
        threshold=SMALL_TENSOR_THRESHOLD,
        plan=FusionPlan(),
        kind="push",
    )
    bypassed = math.prod(shape) < SMALL_TENSOR_THRESHOLD
    assert ("t" in stream.bypassed) == bypassed
    tensor = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    frame = stream.compress({"t": tensor})["t"]
    decoded = stream.decode_tensor("t", frame.message)
    # The bypass codec is lossless; 3LC's quantizer is not.
    assert np.array_equal(decoded, tensor) == bypassed


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_stream_of_a_topology_bypasses_the_same_tensors(topology):
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(SCHEME, seed=0),
        CosineDecay(0.05, 4),
        EngineConfig(
            num_workers=4, batch_size=8, shard_size=32, topology=topology,
            **SHAPE_OVERRIDES[topology],
        ),
    )
    service = engine.service
    want = {
        name for name, param in service.params.items()
        if param.size < SMALL_TENSOR_THRESHOLD
    }
    # The model has tensors on both sides of the threshold.
    assert want and want != set(service.params)
    assert set(service.bypassed) == want
    # Ring and hier workers hand over raw gradients: they have no stream.
    streams = [w.stream for w in engine.workers if w.stream is not None]
    streams += getattr(service, "uplinks", [])
    assert bool(streams) == (topology != "ring")
    for stream in streams:
        assert stream.bypassed == want
