"""The lockstep ring against the per-transmit oracle, bit for bit.

``RingAllReduce`` pays one ``Compressor.round_trip`` per hop — the default
batched encode and decode, or 3LC's frame-free flat passes;
``ring_oracle.OracleRingAllReduce`` is the ring it replaced — one ring per
tensor, one codec round-trip per send. For every scheme a ring can run,
nothing observable may differ: outputs, wire bytes, busiest-link bytes,
and every error-feedback residual a context carries into the next step.
"""

import numpy as np
import pytest
from ring_oracle import OracleRingAllReduce

from repro.compression import (
    LocalStepsCompressor,
    ThreeLCCompressor,
    available_schemes,
    make_compressor,
)
from repro.compression.base import snapshot_contexts
from repro.distributed.allreduce import RingAllReduce

#: Every scheme a ring can run, by the factory the ring and the oracle
#: each build theirs with; 3LC without error feedback pins the flat hop's
#: no-residual branch.
FACTORIES = {
    name: lambda seed, name=name: make_compressor(name, seed=seed)
    for name in available_schemes()
    if not make_compressor(name).defers_transmission
}
FACTORIES["3LC (s=1.00, no error feedback)"] = lambda seed: ThreeLCCompressor(
    error_feedback=False
)
#: Error feedback carries across steps.
STEPS = 3

#: Sizes below the node count leave empty chunks; ``()`` is a scalar.
SHAPES = {
    "w0": (37, 11),
    "tiny": (3,),
    "b0": (5,),
    "empty": (0,),
    "w1": (640,),
    "scalar": (),
    "w2": (2, 3, 7),
}
BYPASS = {"b0", "scalar"}


def assert_same_state(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, dict):
            assert_same_state(value, b[key])
        elif isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype
            np.testing.assert_array_equal(value, b[key])
        else:
            np.testing.assert_equal(value, b[key])


@pytest.mark.parametrize("scheme", FACTORIES)
@pytest.mark.parametrize("nodes", [2, 3, 5, 8])  # 5: b0's chunks hold one value
def test_tensor_set_matches_per_tensor_oracle(scheme, nodes):
    ring = RingAllReduce(nodes, SHAPES, FACTORIES[scheme](3), bypass=BYPASS)
    oracle_scheme = FACTORIES[scheme](3)
    oracles = {
        name: OracleRingAllReduce(
            nodes, shape, None if name in BYPASS else oracle_scheme
        )
        for name, shape in SHAPES.items()
    }
    rng = np.random.default_rng(nodes)
    for step in range(STEPS):
        grads = [
            {
                name: (rng.standard_t(3, size=shape) * 0.01).astype(np.float32)
                for name, shape in SHAPES.items()
            }
            for _ in range(nodes)
        ]
        results = ring.reduce(grads, average=step != 1)
        assert list(results) == list(SHAPES)
        for name, oracle in oracles.items():
            expected = oracle.reduce([g[name] for g in grads], average=step != 1)
            got = results[name]
            assert got.wire_bytes == expected.wire_bytes
            assert got.max_link_bytes == expected.max_link_bytes
            assert got.baseline_bytes == expected.baseline_bytes
            for ours, theirs in zip(got.outputs, expected.outputs, strict=True):
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                np.testing.assert_array_equal(ours, theirs)
        theirs = {
            (name, *key): ctx
            for name, oracle in oracles.items()
            for key, ctx in oracle._contexts.items()
        }
        assert_same_state(
            snapshot_contexts(ring._contexts), snapshot_contexts(theirs)
        )
    assert all(name not in BYPASS for name, *_ in ring._contexts)


@pytest.mark.parametrize(
    "scheme",
    ["3LC (s=1.00)", "3LC (s=1.75)", "Stoch 3-value + QE", "8-bit int", "32-bit float"],
)
def test_lone_tensor_is_the_one_entry_set(scheme):
    nodes, shape = 4, (9, 5)
    ring = RingAllReduce(nodes, shape, FACTORIES[scheme](1))
    oracle = OracleRingAllReduce(nodes, shape, FACTORIES[scheme](1))
    rng = np.random.default_rng(7)
    for _ in range(2):
        tensors = [rng.normal(size=shape).astype(np.float32) for _ in range(nodes)]
        got, expected = ring.reduce(tensors), oracle.reduce(tensors)
        assert (got.wire_bytes, got.max_link_bytes) == (
            expected.wire_bytes,
            expected.max_link_bytes,
        )
        for ours, theirs in zip(got.outputs, expected.outputs, strict=True):
            np.testing.assert_array_equal(ours, theirs)


def _halving(owner, attribute: str, decoded: list) -> None:
    """Make ``owner.attribute`` decode to half of what it used to."""
    decode = getattr(owner, attribute)

    def halved(*args):
        out = [0.5 * arr for arr in decode(*args)]
        decoded.extend(out)
        return out

    setattr(owner, attribute, halved)


@pytest.mark.parametrize(
    "scheme, seam",
    [
        # The 3LC hop decodes the encoded bytes with the codec's decode core.
        ("3LC (s=1.00)", lambda scheme: (scheme.codec, "decode")),
        # The default hop decodes the frames it built.
        ("32-bit float", lambda scheme: (scheme, "decompress_batch")),
    ],
    ids=["3lc-decode-core", "default-decompress-batch"],
)
def test_receivers_decode_the_wire_message(scheme, seam):
    """A scheme whose decode differs from its reconstruction must show."""
    scheme = make_compressor(scheme)
    decoded = []
    _halving(*seam(scheme), decoded)
    tensors = [np.full(4, 2.0, dtype=np.float32) for _ in range(2)]
    result = RingAllReduce(2, (4,), scheme).reduce(tensors, average=False)
    assert decoded
    # Reduce hop: 2 + 0.5 * 2 = 3; gather hop: the other node gets 0.5 * 3.
    assert sorted({float(v) for out in result.outputs for v in out}) == [1.5, 3.0]


def test_set_ring_rejects_deferring_scheme():
    ring = RingAllReduce(2, {"w": (30,)}, LocalStepsCompressor(2))
    grads = [{"w": np.ones(30, dtype=np.float32)} for _ in range(2)]
    with pytest.raises(ValueError, match="deferred a hop transmission"):
        ring.reduce(grads)


def test_set_ring_checks_node_count_and_shapes():
    ring = RingAllReduce(3, {"w": (4,), "b": (2,)})
    good = {"w": np.zeros(4), "b": np.zeros(2)}
    with pytest.raises(ValueError, match="expected 3 tensors"):
        ring.reduce([good, good])
    with pytest.raises(ValueError, match="shape"):
        ring.reduce([good, good, {"w": np.zeros(4), "b": np.zeros(3)}])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_names_the_offender(bad):
    ring = RingAllReduce(
        4, {"w": (64,), "v": (40,), "b": (3,)}, make_compressor("3LC (s=1.00)"),
        bypass={"b"},
    )
    grads = [
        {"w": np.ones(64, np.float32), "v": np.ones(40, np.float32),
         "b": np.ones(3, np.float32)}
        for _ in range(4)
    ]
    # Node 2 sends chunk 2 of every tensor on the first reduce hop.
    grads[2]["v"][25] = bad
    with pytest.raises(
        ValueError,
        match=r"tensor 'v', reduce hop 0, sender 2\): cannot quantize non-finite "
        r"tensor \(segment 6\)",
    ):
        ring.reduce(grads)


@pytest.mark.parametrize(
    "scheme", [name for name in FACTORIES if name != "32-bit float"]
)
def test_sparsifiers_and_quantizers_name_a_non_finite_sender(scheme):
    # 32-bit float carries the value through (test_schemes.PASS_THROUGH).
    ring = RingAllReduce(3, {"w": (30,)}, FACTORIES[scheme](0))
    grads = [{"w": np.ones(30, np.float32)} for _ in range(3)]
    grads[1]["w"][12] = np.nan  # chunk 1: node 1 sends it on the first hop
    with pytest.raises(
        ValueError, match=r"tensor 'w', reduce hop 0, sender 1\): .*non-finite"
    ):
        ring.reduce(grads)
