"""Self-describing wire format for compressed state-change tensors.

Every compression scheme in this repository serializes to the same framed
message so that (a) decompression needs no out-of-band metadata and (b) the
experiment harness measures *honest* wire sizes that include header
overhead, exactly as network traffic accounting would.

Frame layout (little-endian)::

    offset  size  field
    0       4     magic  b"3LC\\0"
    4       1     format version (currently 1)
    5       1     codec id (registry of schemes, see CodecId)
    6       1     dtype code of the decompressed tensor
    7       1     ndim
    8       1     number of float64 scalar parameters
    9       3     reserved (zero)
    12      4*ndim        shape, uint32 each
    ..      8*n_scalars   scalar parameters (e.g. the 3LC scale M)
    ..      8     payload length, uint64
    ..      n     payload bytes
    ..      4     CRC32 over everything above

The CRC is a transport-integrity check: the decompressors in this repo are
exercised by property-based fuzz tests, and a checksum distinguishes
"corrupted frame" from "codec bug" decisively.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = ["CodecId", "WireMessage", "FusedWireMessage", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"3LC\0"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sBBBBB3x")
_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")

_DTYPE_CODES: dict[int, np.dtype] = {
    0: np.dtype(np.float32),
    1: np.dtype(np.float64),
    2: np.dtype(np.float16),
}
_DTYPE_TO_CODE = {v: k for k, v in _DTYPE_CODES.items()}


class CodecId(IntEnum):
    """Registry of compression schemes appearing on the wire.

    Numbers are never reused: 8, 9 and 11-14 belonged to codecs that are
    no longer modelled, and :meth:`WireMessage.unpack` refuses them.
    """

    FLOAT32 = 0
    INT8 = 1
    ONEBIT_MQE = 2
    STOCHASTIC_TERNARY_QE = 3
    TOPK_SPARSE = 4
    THREELC = 5
    THREELC_NO_ZRE = 6
    TWO_BIT_TERNARY = 7
    THREELC_HUFFMAN = 10
    FUSED_BUCKET = 15


_CODEC_IDS = frozenset(CodecId)


@dataclass(frozen=True)
class WireMessage:
    """A framed compressed tensor ready for (simulated) transmission.

    Attributes
    ----------
    codec_id:
        Which scheme produced the payload.
    shape:
        Shape of the decompressed tensor.
    dtype:
        Dtype of the decompressed tensor.
    scalars:
        Scheme-specific float parameters (e.g. 3LC's ``M``; MQE 1-bit's two
        reconstruction magnitudes; int8's scale).
    payload:
        Opaque payload bytes, interpreted by the owning codec.
    """

    codec_id: CodecId
    shape: tuple[int, ...]
    payload: bytes
    scalars: tuple[float, ...] = field(default=())
    dtype: np.dtype = field(default=np.dtype(np.float32))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype not in _DTYPE_TO_CODE:
            raise ValueError(f"unsupported tensor dtype {self.dtype}")
        if len(self.shape) > 255:
            raise ValueError("too many dimensions")
        if len(self.scalars) > 255:
            raise ValueError("too many scalar parameters")

    @property
    def element_count(self) -> int:
        """Number of elements in the decompressed tensor."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count

    def checked_scalars(
        self, count: int, *, nonnegative: bool = False, times: float = 1.0
    ) -> tuple[float, ...]:
        """The header scalars, checked before a decoder multiplies by them.

        Exactly ``count`` values, each finite in the frame's ``dtype`` even
        once multiplied by ``times`` (the largest factor the decoder applies)
        and, with ``nonnegative`` (scales, norms, counts), none below zero.
        """
        high = float(np.finfo(self.dtype).max) / times
        low = 0.0 if nonnegative else -high
        if len(self.scalars) != count or not all(low <= s <= high for s in self.scalars):
            raise ValueError(
                f"{self.codec_id.name} frame needs {count} header value(s) in "
                f"[{low}, {high}], got scalars={self.scalars!r}"
            )
        return tuple(map(float, self.scalars))

    def payload_array(self, dtype, kind: str) -> np.ndarray:
        """The payload as a read-only ``shape`` view in ``dtype``, its size checked."""
        need = self.element_count * np.dtype(dtype).itemsize
        if len(self.payload) != need:
            raise ValueError(
                f"{kind} frame of shape {self.shape} needs {need} payload bytes, "
                f"got {len(self.payload)}"
            )
        return np.ndarray(self.shape, dtype, buffer=self.payload)

    @property
    def wire_size(self) -> int:
        """Total frame size in bytes, headers and CRC included."""
        return (
            _HEADER.size
            + 4 * len(self.shape)
            + 8 * len(self.scalars)
            + _LEN.size
            + len(self.payload)
            + _CRC.size
        )

    def pack(self) -> bytes:
        """Serialize the frame to bytes."""
        head = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            int(self.codec_id),
            _DTYPE_TO_CODE[self.dtype],
            len(self.shape),
            len(self.scalars),
        )
        shape_bytes = struct.pack(f"<{len(self.shape)}I", *self.shape)
        scalar_bytes = struct.pack(f"<{len(self.scalars)}d", *self.scalars)
        body = head + shape_bytes + scalar_bytes + _LEN.pack(len(self.payload)) + self.payload
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def unpack(cls, data: bytes) -> "WireMessage":
        """Deserialize a frame, verifying magic, version, and CRC."""
        if len(data) < _HEADER.size + _LEN.size + _CRC.size:
            raise ValueError("frame too short")
        body, crc_bytes = data[:-_CRC.size], data[-_CRC.size :]
        (expected_crc,) = _CRC.unpack(crc_bytes)
        if zlib.crc32(body) != expected_crc:
            raise ValueError("frame CRC mismatch")
        magic, version, codec_id, dtype_code, ndim, n_scalars = _HEADER.unpack_from(body, 0)
        if magic != MAGIC:
            raise ValueError("bad magic")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        if codec_id not in _CODEC_IDS:
            raise ValueError(f"unknown codec id {codec_id}")
        if dtype_code not in _DTYPE_CODES:
            raise ValueError(f"unknown dtype code {dtype_code}")
        offset = _HEADER.size
        shape = struct.unpack_from(f"<{ndim}I", body, offset)
        offset += 4 * ndim
        scalars = struct.unpack_from(f"<{n_scalars}d", body, offset)
        offset += 8 * n_scalars
        (payload_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        payload = body[offset : offset + payload_len]
        if len(payload) != payload_len:
            raise ValueError("truncated payload")
        if offset + payload_len != len(body):
            raise ValueError("trailing bytes in frame")
        return cls(
            codec_id=CodecId(codec_id),
            shape=tuple(int(d) for d in shape),
            payload=payload,
            scalars=tuple(scalars),
            dtype=_DTYPE_CODES[dtype_code],
        )


_FUSED_HEADER = struct.Struct("<4sBBH")  # magic, version, codec id, tensor count


@dataclass(frozen=True)
class FusedWireMessage:
    """A multi-tensor frame: several flattened tensors in one codec payload.

    The fused-bucket hot path concatenates many small tensors into one flat
    bucket, compresses the bucket with a *single* codec call, and frames the
    result once. The frame carries the sub-tensor shape table needed to
    split the decoded bucket; which parameter owns which slot is agreed
    out-of-band by the deterministic bucket plan, exactly as gradient-fusion
    implementations agree on bucket assignment before training starts.

    Frame layout (little-endian)::

        offset  size  field
        0       4     magic  b"3LC\\0"
        4       1     format version
        5       1     codec id (always CodecId.FUSED_BUCKET)
        6       2     number of sub-tensors, uint16
        8       var   shape table: per tensor, u8 ndim + u32 dims
        ..      8     inner frame length, uint64
        ..      n     inner frame (a complete WireMessage of the flat bucket)
        ..      4     CRC32 over everything above

    Attributes
    ----------
    inner:
        The compressed flat bucket (its shape is ``(total_elements,)``).
    shapes:
        Original shape of each sub-tensor, in bucket order.
    """

    inner: WireMessage
    shapes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shapes", tuple(tuple(int(d) for d in s) for s in self.shapes)
        )
        if not self.shapes:
            raise ValueError("a fused message needs at least one sub-tensor")
        if len(self.shapes) > 0xFFFF:
            raise ValueError("too many sub-tensors")
        total = 0
        for shape in self.shapes:
            if len(shape) > 255:
                raise ValueError("too many dimensions in sub-tensor shape")
            total += math.prod(shape)
        if total != self.inner.element_count:
            raise ValueError(
                f"shape table covers {total} elements but the inner frame "
                f"decodes {self.inner.element_count}"
            )

    @property
    def codec_id(self) -> CodecId:
        return CodecId.FUSED_BUCKET

    @property
    def element_count(self) -> int:
        """Total elements across all fused sub-tensors."""
        return self.inner.element_count

    @cached_property
    def wire_size(self) -> int:
        """Total frame size in bytes, shape table and inner frame included."""
        table = sum(1 + 4 * len(shape) for shape in self.shapes)
        return _FUSED_HEADER.size + table + _LEN.size + self.inner.wire_size + _CRC.size

    def pack(self) -> bytes:
        """Serialize the fused frame to bytes."""
        head = _FUSED_HEADER.pack(
            MAGIC, FORMAT_VERSION, int(CodecId.FUSED_BUCKET), len(self.shapes)
        )
        table = b"".join(
            struct.pack(f"<B{len(shape)}I", len(shape), *shape)
            for shape in self.shapes
        )
        inner = self.inner.pack()
        body = head + table + _LEN.pack(len(inner)) + inner
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def unpack(cls, data: bytes) -> "FusedWireMessage":
        """Deserialize a fused frame, verifying magic, version, and CRC."""
        if len(data) < _FUSED_HEADER.size + _LEN.size + _CRC.size:
            raise ValueError("fused frame too short")
        body, crc_bytes = data[: -_CRC.size], data[-_CRC.size :]
        (expected_crc,) = _CRC.unpack(crc_bytes)
        if zlib.crc32(body) != expected_crc:
            raise ValueError("fused frame CRC mismatch")
        magic, version, codec_id, count = _FUSED_HEADER.unpack_from(body, 0)
        if magic != MAGIC:
            raise ValueError("bad magic")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        if codec_id != int(CodecId.FUSED_BUCKET):
            raise ValueError(f"not a fused frame: codec id {codec_id}")
        offset = _FUSED_HEADER.size
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dims = struct.unpack_from(f"<{ndim}I", body, offset)
            offset += 4 * ndim
            shapes.append(tuple(int(d) for d in dims))
        (inner_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        inner_bytes = body[offset : offset + inner_len]
        if len(inner_bytes) != inner_len:
            raise ValueError("truncated inner frame")
        if offset + inner_len != len(body):
            raise ValueError("trailing bytes in fused frame")
        return cls(inner=WireMessage.unpack(inner_bytes), shapes=tuple(shapes))
