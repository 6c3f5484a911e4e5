"""Stream-level properties of :class:`~repro.compression.fusion.WireStream`.

Every registered scheme × {no buckets, two exact or lossy buckets, one
exact or lossy bucket}: what a stream compresses, any stream of the same
layout decodes to exactly the frames' reconstructions; frames come in
registration order then plan order; per-tensor frames are the plain
messages a bare context under the documented stream key would produce;
deferral and checkpoints work per frame.
"""

import numpy as np
import pytest

from repro.compression import available_schemes, make_compressor
from repro.compression.fusion import (
    FusionPlan,
    WireStream,
    bucket_label,
    build_fusion_plan,
)
from repro.core.packets import FusedWireMessage, WireMessage

THRESHOLD = 64
SHAPES = {
    "w0": (24, 16),
    "b0": (16,),
    "w1": (16, 12),
    "b1": (12,),
    "gain": (5,),
    "w2": (12, 20),
}
PLANS = {
    "no buckets": FusionPlan(),
    # b0 alone, then b1 + gain: two buckets interleaved with large tensors.
    "exact buckets": build_fusion_plan(
        SHAPES, threshold=THRESHOLD, bucket_elements=20
    ),
    "lossy buckets": build_fusion_plan(
        SHAPES, threshold=THRESHOLD, bucket_elements=20, lossy=True
    ),
    # b0 + b1 + gain: every small tensor in one bucket.
    "one exact bucket": build_fusion_plan(
        SHAPES, threshold=THRESHOLD, bucket_elements=THRESHOLD
    ),
    "one lossy bucket": build_fusion_plan(
        SHAPES, threshold=THRESHOLD, bucket_elements=THRESHOLD, lossy=True
    ),
}

parametrize_schemes = pytest.mark.parametrize("scheme", available_schemes())
parametrize_plans = pytest.mark.parametrize("plan", PLANS)


def make_stream(scheme: str, plan: str, *, kind="push", owner=(3,)) -> WireStream:
    return WireStream(
        make_compressor(scheme, seed=4),
        SHAPES,
        threshold=THRESHOLD,
        plan=PLANS[plan],
        kind=kind,
        owner=owner,
    )


def steps(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield {
            name: rng.normal(size=shape).astype(np.float32)
            for name, shape in SHAPES.items()
        }


def reconstructions(frames) -> dict[str, np.ndarray]:
    parts: dict[str, np.ndarray] = {}
    for frame in frames.values():
        if frame is not None:
            parts.update(frame.parts)
    return parts


@parametrize_plans
@parametrize_schemes
def test_decompress_returns_the_frames_reconstructions(scheme, plan):
    sender = make_stream(scheme, plan)
    # Decoding depends on the layout alone: another direction's stream works.
    receiver = make_stream(scheme, plan, kind="pull", owner=())
    for tensors in steps(3):
        frames = sender.compress(tensors)
        decoded = receiver.decompress(frames)
        expected = reconstructions(frames)
        assert decoded.keys() == expected.keys()
        for name, value in decoded.items():
            assert value.shape == SHAPES[name]
            np.testing.assert_array_equal(value, expected[name])


@parametrize_plans
@parametrize_schemes
def test_frames_follow_registration_then_plan_order(scheme, plan):
    stream = make_stream(scheme, plan)
    buckets = PLANS[plan].buckets
    fused = PLANS[plan].fused_names
    labels = [name for name in SHAPES if name not in fused] + [
        bucket_label(bucket.index) for bucket in buckets
    ]
    members = {name: (name,) for name in SHAPES}
    members.update((bucket_label(b.index), b.names) for b in buckets)
    for tensors in steps(2):
        frames = stream.compress(tensors)
        assert list(frames) == labels
        for label, frame in frames.items():
            if frame is None:
                continue
            assert frame.names == members[label]
            assert tuple(frame.parts) == frame.names
            kind = WireMessage if label in SHAPES else FusedWireMessage
            assert type(frame.message) is kind


@parametrize_plans
@parametrize_schemes
def test_frames_are_what_bare_contexts_under_the_stream_keys_produce(scheme, plan):
    """A one-member frame carries the plain message of a context keyed
    ``(kind, *owner, name)``; a bucket's inner context is keyed
    ``(kind + "-fused", *owner, index)`` — so stochastic schemes draw the
    streams they always drew."""
    stream = make_stream(scheme, plan, kind="hpush", owner=(1,))
    compressor = make_compressor(scheme, seed=4)
    bare = {}
    for name, shape in SHAPES.items():
        if name in PLANS[plan].fused_names:
            continue
        make = (
            compressor.make_bypass_context
            if np.prod(shape) < THRESHOLD
            else compressor.make_context
        )
        bare[name] = make(shape, key=("hpush", 1, name))
    for bucket in PLANS[plan].buckets:
        bare[bucket_label(bucket.index)] = compressor.make_fused_context(
            bucket, key=("hpush-fused", 1, bucket.index), lossy=PLANS[plan].lossy
        )
    for tensors in steps(3):
        frames = stream.compress(tensors)
        assert frames.keys() == bare.keys()
        for label, context in bare.items():
            # A tensor's context takes its array, a bucket's the named set.
            result = context.compress(tensors.get(label, tensors))
            assert (frames[label] is None) == (result is None)
            if result is not None:
                assert frames[label].message.pack() == result.message.pack()


@parametrize_plans
def test_deferring_scheme_defers_whole_frames(plan):
    stream = make_stream("2 local steps", plan)
    first, second = steps(2)
    deferred = stream.compress(first)
    assert list(deferred.values()) == [None] * len(stream.contexts)
    assert stream.decompress(deferred) == {}
    carried = stream.compress(second)
    assert all(frame is not None for frame in carried.values())
    decoded = stream.decompress(carried)
    for name in SHAPES:
        np.testing.assert_array_equal(decoded[name], first[name] + second[name])


@parametrize_plans
@parametrize_schemes
def test_checkpoint_reproduces_the_next_frames(scheme, plan):
    stream = make_stream(scheme, plan)
    *warm, last = steps(3)
    for tensors in warm:
        stream.compress(tensors)
    restored = make_stream(scheme, plan)
    restored.load_state(stream.state_dict())
    assert restored.residual_norms() == stream.residual_norms()
    ours, theirs = restored.compress(last), stream.compress(last)
    assert list(ours) == list(theirs)
    for label, frame in theirs.items():
        assert (ours[label] is None) == (frame is None)
        if frame is not None:
            assert ours[label].message.pack() == frame.message.pack()


def test_checkpoint_from_another_plan_names_the_labels():
    snapshot = make_stream("3LC (s=1.00)", "exact buckets").state_dict()
    with pytest.raises(ValueError) as raised:
        make_stream("3LC (s=1.00)", "no buckets").load_state(snapshot)
    message = str(raised.value)
    assert "missing keys ['b0', 'b1', 'gain']" in message
    assert "unexpected keys ['bucket:0', 'bucket:1']" in message


@pytest.mark.parametrize(
    "tamper, match",
    [
        (lambda frames: frames.pop("bucket:1"), r"sender 2.*missing \['bucket:1'\]"),
        (lambda frames: frames.pop("w1"), r"sender 2.*missing \['w1'\]"),
        (
            lambda frames: frames.update({"bucket:7": frames["bucket:0"]}),
            r"sender 2.*unknown \['bucket:7'\]",
        ),
    ],
)
def test_decompress_rejects_frames_of_another_plan(tamper, match):
    stream = make_stream("3LC (s=1.00)", "exact buckets")
    frames = stream.compress(next(steps(1)))
    tamper(frames)
    with pytest.raises(ValueError, match=match):
        stream.decompress(frames, sender=2)
