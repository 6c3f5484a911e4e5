"""The 3LC codec: quantization + quartic encoding + zero-run encoding.

:class:`ThreeLCCodec` chains the three transforms of the paper (§3) into a
tensor → :class:`~repro.core.packets.WireMessage` pipeline and back.
:class:`CompressionContext` binds a codec to the per-tensor
:class:`~repro.core.error_feedback.ErrorAccumulationBuffer` that corrects
quantization errors across training steps — one context per tensor per
direction, mirroring the paper's point-to-point design (Figure 2).

The codec is stateless; all cross-step state lives in the context. This
separation lets the parameter server share one compressed pull message
among all workers (paper §3, "sharing compression") while each worker keeps
its own push context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage
from repro.core.quantization import _validate_multiplier, max_magnitude, segment_scales
from repro.core.quartic import (
    _DECODE_TABLE,
    GROUP_SIZE,
    MAX_QUARTIC_BYTE,
    ZERO_GROUP_BYTE,
)
from repro.core.zre import _RUN_LENGTH, zre_encode, zre_encode_batch

__all__ = [
    "ThreeLCCodec",
    "CompressionContext",
    "CompressionResult",
    "round_trip_context_batch",
    "pack_ternary",
    "unpack_ternary",
    "unpack_frame",
]

_WEIGHTS = (3 ** np.arange(GROUP_SIZE - 1, -1, -1)).astype(np.float32)
#: Groups per product: OpenBLAS threads a longer gemv, which stalls on a busy host.
_PACK_GROUPS = 1 << 14


def pack_ternary(flat, lengths, scales, fill) -> tuple:
    """The pack kernel of both ternary codecs: segments of ``lengths``
    elements concatenated in ``flat`` to their quartic bytes, each segment's
    byte offsets in them, and the flat reconstruction.

    ``fill(segment, scale, out)`` writes a segment over its nonzero scale,
    within [-1, 1], into one float buffer zero-padded to whole groups per
    segment; rounded in place, its zeros +0.0, the buffer times the scale is
    the reconstruction and an exact ``(G, 5) @ (81, 27, 9, 3, 1)`` product
    the bytes. A scale beyond the dtype is refused first, as a receiver would.
    """
    high = float(np.finfo(flat.dtype).max)
    segments, end, at = [], 0, 0
    scales = np.asarray(scales, dtype=np.float64).tolist()
    for i, (n, scale) in enumerate(zip(np.asarray(lengths).tolist(), scales)):
        if scale > high:
            raise ValueError(f"frame {i}: scale {scale!r} beyond {high}")
        segments.append((end, n, at, scale))
        end, at = end + n, at - (-n // GROUP_SIZE) * GROUP_SIZE
    values = np.zeros(at, dtype=flat.dtype)
    for lo, n, at, scale in segments:
        if scale:
            fill(flat[lo : lo + n], scale, values[at : at + n])
    np.rint(values, out=values)
    values += 0.0
    rows = values.reshape(-1, GROUP_SIZE)
    packed = np.empty(len(rows), dtype=np.uint8)
    for lo in range(0, len(rows), _PACK_GROUPS):
        product = rows[lo : lo + _PACK_GROUPS] @ _WEIGHTS
        np.add(product, ZERO_GROUP_BYTE, out=packed[lo : lo + _PACK_GROUPS], casting="unsafe")
    recon = np.empty_like(flat)
    for lo, n, at, scale in segments:
        np.multiply(values[at : at + n], scale, out=recon[lo : lo + n])
    byte_offsets = np.array([at // GROUP_SIZE for _, _, at, _ in segments] + [packed.size])
    return packed, byte_offsets, recon


# Row b: byte b's five values per dtype; an escape's row is the zero group.
_ROWS = np.concatenate((_DECODE_TABLE, np.zeros((13, GROUP_SIZE), np.int8)))
_VALUES = {np.dtype(t): _ROWS.astype(t) for t in (np.float16, np.float32, np.float64)}


def unpack_ternary(encoded, byte_offsets, counts, scales, zre, dtype) -> list:
    """The decode kernel of both ternary codecs, :func:`pack_ternary`'s
    inverse: one flat view per segment, all of one buffer in ``dtype``.
    ``zre`` flags the zero-run encoded segments (``None``: all); a bad
    segment raises naming it as a frame. Zero-run expansion and quartic
    lookup are one ``take`` by the bytes repeated by their run lengths.
    """
    arr = np.asarray(encoded, dtype=np.uint8).reshape(-1)
    starts = offsets = np.asarray(byte_offsets, dtype=np.intp)
    if arr.size and arr.max() > MAX_QUARTIC_BYTE:
        if zre is not None:
            # A frame sent without zero-run encoding holds quartic bytes only.
            plain = np.repeat(~np.asarray(zre, dtype=bool), np.diff(offsets))
            wrong = np.flatnonzero(plain & (arr > MAX_QUARTIC_BYTE))
            if wrong.size:
                i = int(np.searchsorted(offsets, wrong[0], side="right")) - 1
                raise ValueError(f"frame {i}: byte outside quartic range [0, 242]")
        runs = _RUN_LENGTH.take(arr)
        starts = np.concatenate(([0], np.cumsum(runs)))[offsets]
        arr = np.repeat(arr, runs)
    starts = starts.tolist()
    out = _VALUES[np.dtype(dtype)].take(arr, axis=0).ravel()
    views = []
    counts, scales = np.asarray(counts).tolist(), np.asarray(scales, float).tolist()
    for i, (start, stop, count, scale) in enumerate(zip(starts, starts[1:], counts, scales)):
        # Frame by frame: a run that over-ran its frame's count must not pass
        # because a short neighbour made the totals agree.
        if stop - start != -(-count // GROUP_SIZE):
            raise ValueError(
                f"frame {i}: encoded length {stop - start} "
                f"inconsistent with count {count}"
            )
        views.append(out[GROUP_SIZE * start : GROUP_SIZE * start + count])
        views[-1] *= scale
    return views


def unpack_frame(message: WireMessage, scale: float, zre: bool, dtype) -> np.ndarray:
    """One ternary frame, its ``scale`` checked, decoded; refusals name no frame."""
    encoded = np.frombuffer(message.payload, dtype=np.uint8)
    count, flags = [message.element_count], None if zre else [False]
    try:
        (out,) = unpack_ternary(encoded, [0, encoded.size], count, [scale], flags, dtype)
    except ValueError as error:
        raise ValueError(str(error).removeprefix("frame 0: ")) from None
    return out.reshape(message.shape)


@dataclass(frozen=True)
class CompressionResult:
    """Output of one compression call.

    Attributes
    ----------
    message:
        The framed wire message to transmit.
    reconstruction:
        What the receiver will decode — the sender uses this to update its
        error accumulation buffer without a decode round-trip.
    """

    message: WireMessage
    reconstruction: np.ndarray

    @property
    def wire_size(self) -> int:
        return self.message.wire_size

    def bits_per_value(self) -> float:
        """Wire bits spent per tensor element (header included)."""
        count = self.message.element_count
        if count == 0:
            return 0.0
        return 8.0 * self.message.wire_size / count


class ThreeLCCodec:
    """3LC tensor codec (paper §3.1–3.3).

    Parameters
    ----------
    sparsity_multiplier:
        The knob ``s`` with ``1 <= s < 2``. Default 1.0 preserves the
        maximum input magnitude exactly; larger values emit more zeros for
        zero-run encoding to exploit.
    use_zre:
        If False, stop after quartic encoding (the "No ZRE" row of
        Table 2). Wire payload is then exactly 1.6 bits/value.
    dtype:
        Dtype used for dequantized tensors.
    """

    def __init__(
        self,
        sparsity_multiplier: float = 1.0,
        *,
        use_zre: bool = True,
        dtype: np.dtype | type = np.float32,
    ):
        # Validate eagerly so misconfiguration fails at construction.
        self.sparsity_multiplier = _validate_multiplier(sparsity_multiplier)
        self.use_zre = bool(use_zre)
        self.dtype = np.dtype(dtype)

    @property
    def codec_id(self) -> CodecId:
        return CodecId.THREELC if self.use_zre else CodecId.THREELC_NO_ZRE

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        """Compress a tensor into a wire message.

        The returned reconstruction equals ``decompress(message)`` exactly;
        tests assert this identity.
        """
        arr = np.asarray(tensor, dtype=self.dtype)
        scale = max_magnitude(arr) * self.sparsity_multiplier
        packed, _, recon = pack_ternary(arr.reshape(-1), [arr.size], [scale], np.divide)
        payload = (zre_encode(packed) if self.use_zre else packed).tobytes()
        message = self._frame(arr.shape, payload, scale)
        return CompressionResult(message, recon.reshape(arr.shape))

    def _frame(
        self, shape: tuple[int, ...], payload: bytes, scale: float
    ) -> WireMessage:
        """Frame one tensor's encoded payload."""
        return WireMessage(
            codec_id=self.codec_id,
            shape=shape,
            payload=payload,
            scalars=(scale,),
            dtype=self.dtype,
        )

    def encode(self, flat: np.ndarray, lengths: np.ndarray) -> tuple:
        """The array-level encode core, no frame built: segments of
        ``lengths`` elements concatenated in ``flat`` to the encoded bytes,
        each segment's byte offsets in them, the float64 scales, and the
        flat reconstruction a receiver decodes."""
        flat, lengths, scales = segment_scales(flat, lengths, self.sparsity_multiplier)
        packed, byte_offsets, recon = pack_ternary(flat, lengths, scales, np.divide)
        if self.use_zre:
            packed, byte_offsets = zre_encode_batch(packed, byte_offsets)
        return packed, byte_offsets, scales, recon

    #: The array-level decode core, :meth:`encode`'s inverse.
    decode = staticmethod(unpack_ternary)

    def decompress(self, message: WireMessage) -> np.ndarray:
        """Decode a wire message back to a dense tensor (``M · Q``)."""
        if message.codec_id not in (CodecId.THREELC, CodecId.THREELC_NO_ZRE):
            raise ValueError(f"not a 3LC message: {message.codec_id!r}")
        (scale,) = message.checked_scalars(1, nonnegative=True)
        zre = message.codec_id is CodecId.THREELC
        return unpack_frame(message, scale, zre, message.dtype)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ThreeLCCodec(s={self.sparsity_multiplier}, "
            f"use_zre={self.use_zre}, dtype={self.dtype})"
        )


class CompressionContext:
    """Per-tensor, per-direction compression state (paper Figure 2/3).

    Owns the error accumulation buffer and runs the full transmit cycle:
    accumulate → quantize/encode → locally dequantize → store residual.

    Parameters
    ----------
    shape:
        Shape of the tensor this context transmits.
    codec:
        The codec to apply. Contexts with ``error_feedback=False`` (used by
        the stochastic-quantization baseline, where feedback harms
        convergence per the paper) compress the raw input each step.
    error_feedback:
        Whether to maintain the accumulation buffer.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        codec: ThreeLCCodec,
        *,
        error_feedback: bool = True,
    ):
        self.shape = tuple(int(d) for d in shape)
        self.codec = codec
        self.buffer: ErrorAccumulationBuffer | None = (
            ErrorAccumulationBuffer(self.shape, dtype=codec.dtype)
            if error_feedback
            else None
        )
        self._hop: _Hop | None = None  # the last hop it travelled in

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        """Compress one step's state change, applying error feedback."""
        arr = np.asarray(tensor, dtype=self.codec.dtype)
        if arr.shape != self.shape:
            raise ValueError(f"context shape {self.shape}, tensor {arr.shape}")
        if self.buffer is None:
            return self.codec.compress(arr)
        # No copy: the codec only reads the live sum and returns fresh arrays.
        result = self.codec.compress(self.buffer.accumulate(arr))
        self.buffer.subtract(result.reconstruction)
        return result

    def decompress(self, message: WireMessage) -> np.ndarray:
        """Decode a received message (receive side carries no state)."""
        return self.codec.decompress(message)

    def residual_norm(self) -> float:
        """L2 norm of the accumulated error (0 when feedback is off)."""
        return self.buffer.l2_norm() if self.buffer is not None else 0.0

    def state_dict(self) -> dict:
        """Checkpointable cross-step state (the error residual)."""
        if self.buffer is None:
            return {}
        return {"residual": self.buffer.residual.copy()}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into a fresh context."""
        if self.buffer is None:
            if state:
                raise ValueError("context has no error buffer to restore")
            return
        self.buffer.load_residual(state["residual"])


class _Hop:
    """Contexts that travel together, laid out once: with error feedback
    their residuals move, values unchanged, into consecutive slices of one
    flat array. A hop is reused only for the same contexts in the same order
    while each still points to it; it keeps their ids, not the contexts, so
    it makes no reference cycle."""

    def __init__(self, contexts: tuple[CompressionContext, ...], ids: tuple):
        self.ids = ids
        self.codec = contexts[0].codec
        self.shapes = [context.shape for context in contexts]
        self.lengths = np.array([math.prod(s) for s in self.shapes], dtype=np.intp)
        # Frame bytes but the payload, from one frame per hop layout.
        frames = [self.codec._frame(s, b"", 0.0) for s in self.shapes]
        self.headers = np.array([frame.wire_size for frame in frames])
        self.zre = None if self.codec.use_zre else np.zeros(len(contexts), dtype=bool)
        self.residual = None
        if contexts[0].buffer is not None:
            self.residual = np.empty(int(self.lengths.sum()), dtype=self.codec.dtype)
        ends = np.cumsum(self.lengths).tolist()
        for context, start, end in zip(contexts, [0] + ends, ends):
            if self.residual is not None:
                context.buffer.keep_in(self.residual[start:end].reshape(context.shape))
            context._hop = self


def round_trip_context_batch(items) -> tuple[list[np.ndarray], list[int]]:
    """Send ``(CompressionContext, tensor)`` pairs of one codec and decode them.

    The tensors and ``wire_size`` values that each context's ``compress``
    and a ``decompress`` of its message give, bit for bit, from one pass per
    stage over the whole hop and no frame object. Tensors are arrays.
    """
    items = list(items)
    if not items:
        return [], []
    contexts, tensors = zip(*items)
    ids, hop = tuple(map(id, contexts)), contexts[0]._hop
    if hop is None or hop.ids != ids or any(c._hop is not hop for c in contexts):
        hop = _Hop(contexts, ids)
    shapes = [tensor.shape for tensor in tensors]
    if shapes != hop.shapes:
        raise ValueError(f"context shapes {hop.shapes}, tensors {shapes}")
    flat = np.concatenate(tensors, axis=None, dtype=hop.codec.dtype)
    if hop.residual is not None:
        hop.residual += flat
        flat = hop.residual
    encoded, byte_offsets, scales, recon = hop.codec.encode(flat, hop.lengths)
    if hop.residual is not None:
        hop.residual -= recon
    received = hop.codec.decode(
        encoded, byte_offsets, hop.lengths, scales, hop.zre, hop.codec.dtype
    )
    received = [arr.reshape(shape) for arr, shape in zip(received, hop.shapes)]
    return received, (np.diff(byte_offsets) + hop.headers).tolist()
