"""Raw-frame decoders: refusals that name the sizes, and one-buffer frames.

A raw frame's payload is its tensor's elements and nothing else, so a
payload of any other byte count is refused with the frame's shape, the byte
count it needs and the byte count it got, ragged payloads included. A
float32 frame holds one copy of its tensor, the payload: the sender's
reconstruction and the receiver's decode are read-only views of it, on the
bypass and fused-bypass paths of every scheme too.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.compression.float32 import Float32Compressor
from repro.compression.fusion import Bucket
from repro.compression.int8 import Int8Compressor
from repro.compression.registry import make_compressor
from repro.core.packets import CodecId, WireMessage

SHAPE = (7, 9)

# (scheme, codec id, bytes per element, header scalars, kind named)
DECODERS = {
    "float32": (Float32Compressor(), CodecId.FLOAT32, 4, ()),
    "int8": (Int8Compressor(), CodecId.INT8, 1, (0.5,)),
}


@pytest.mark.parametrize("kind", sorted(DECODERS))
@pytest.mark.parametrize("change", ("short", "long", "ragged", "empty"))
def test_size_refusal_names_the_sizes(kind, change):
    scheme, codec_id, itemsize, scalars = DECODERS[kind]
    need = 63 * itemsize
    got = {"short": need - itemsize, "long": need + itemsize, "ragged": need + 1,
           "empty": 0}[change]
    message = WireMessage(
        codec_id=codec_id, shape=SHAPE, payload=bytes(got), scalars=scalars
    )
    expected = f"{kind} frame of shape {SHAPE} needs {need} payload bytes, got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        scheme.decompress(message)
    # The right byte count decodes.
    decoded = scheme.decompress(replace(message, payload=bytes(need)))
    assert decoded.shape == SHAPE and decoded.dtype == np.float32


def assert_payload_view(arr, message):
    assert arr.base is message.payload
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("shape", ((7, 9), (5,), (), (0, 3)))
def test_float32_frame_is_one_buffer(shape):
    tensor = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    scheme = Float32Compressor()
    result = scheme.make_context(shape).compress(tensor)
    decoded = scheme.decompress(result.message)
    assert result.reconstruction.tobytes() == tensor.tobytes() == decoded.tobytes()
    assert result.reconstruction.shape == decoded.shape == shape
    if tensor.size:
        assert_payload_view(result.reconstruction, result.message)
        assert_payload_view(decoded, result.message)


@pytest.mark.parametrize(
    "name", ("3LC (s=1.75)", "Stoch 3-value + QE", "8-bit int", "5% sparsification")
)
def test_bypass_and_fused_bypass_frames_are_one_buffer(name):
    scheme = make_compressor(name, seed=0)
    tensor = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
    result = scheme.make_bypass_context(tensor.shape).compress(tensor)
    assert_payload_view(result.reconstruction, result.message)
    assert_payload_view(scheme.decompress_bypass(result.message), result.message)
    bucket = Bucket(0, ("a", "b"), ((3, 4), (5,)))
    context = scheme.make_fused_context(bucket)
    frame = context.compress({"a": tensor, "b": np.ones(5, dtype=np.float32)})
    flat = scheme.decompress_fused(frame.message)
    assert_payload_view(flat, frame.message.inner)
