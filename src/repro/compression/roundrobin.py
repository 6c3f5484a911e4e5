"""Round-robin partial gradient exchange (Ako-style; paper §6, ref [37]).

Ako (Watcharapichat et al., SoCC 2016) partitions each gradient tensor and
transmits one partition per step, cycling round-robin; unsent partitions
accumulate locally. Traffic per step is ``1/P`` of the tensor (plus
framing), and every element is transmitted exactly once every ``P`` steps
— a *deterministic* counterpart to magnitude-based sparsification that the
paper lists among low-overhead selection strategies.

Wire format: the partition index travels in the scalar header; the payload
is the partition's float32 values. No bitmap is needed because partition
boundaries are a pure function of (tensor size, P, index).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage

__all__ = ["RoundRobinCompressor", "partition_bounds"]


def partition_bounds(size: int, partitions: int, index: int) -> tuple[int, int]:
    """Half-open flat-index range of one partition.

    Partitions are as equal as possible; the first ``size % partitions``
    partitions get one extra element.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    if not (0 <= index < partitions):
        raise ValueError(f"index {index} out of range for {partitions} partitions")
    base, extra = divmod(size, partitions)
    start = index * base + min(index, extra)
    length = base + (1 if index < extra else 0)
    return start, start + length


class _RoundRobinContext(CompressorContext):
    def __init__(self, shape: tuple[int, ...], partitions: int):
        super().__init__(shape)
        self.partitions = partitions
        self.buffer = ErrorAccumulationBuffer(self.shape)
        self._step = 0

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        accumulated = self.buffer.accumulate(arr)
        index = self._step % self.partitions
        self._step += 1
        start, end = partition_bounds(arr.size, self.partitions, index)
        flat = accumulated.reshape(-1)
        values = np.ascontiguousarray(flat[start:end], dtype="<f4")
        message = WireMessage(
            codec_id=CodecId.ROUND_ROBIN,
            shape=arr.shape,
            payload=values.tobytes(),
            scalars=(float(self.partitions), float(index)),
            dtype=np.float32,
        )
        reconstruction = np.zeros_like(accumulated)
        reconstruction.reshape(-1)[start:end] = values
        self.buffer.subtract(reconstruction)
        return CompressionResult(message, reconstruction)

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()

    def state_dict(self) -> dict:
        return {"residual": self.buffer.residual.copy(), "step": self._step}

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))
        self._step = int(state["step"])


class RoundRobinCompressor(Compressor):
    """``round-robin 1/P``: transmit one tensor partition per step."""

    def __init__(self, partitions: int = 4):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.partitions = int(partitions)
        self.name = f"round-robin 1/{partitions}"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _RoundRobinContext(shape, self.partitions)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.ROUND_ROBIN:
            raise ValueError(f"not a round-robin message: {message.codec_id!r}")
        partitions, index = map(int, message.checked_scalars(2, nonnegative=True))
        count = message.element_count
        start, end = partition_bounds(count, partitions, index)
        values = np.frombuffer(message.payload, dtype="<f4")
        if values.size != end - start:
            raise ValueError("partition size mismatch")
        out = np.zeros(count, dtype=np.float32)
        out[start:end] = values
        return out.reshape(message.shape)
