"""Sufficient-factor / low-rank baseline (paper §6, references [40, 41]).

Project ADAM and Poseidon transmit "sufficient factors" — the rank-1
outer-product factors ``u v^T`` that make up a fully-connected layer's
gradient — instead of the full matrix. 3LC's §6 contrasts itself as "a
general tensor compression scheme that can compress gradients and model
deltas for any type of layers"; this baseline exists to exercise exactly
that generality boundary.

In a parameter-server exchange the per-example factors are already summed
into one matrix, so the faithful analogue is a *truncated SVD*: transmit
the top ``rank`` singular triplets of the 2-D state-change tensor and
accumulate the discarded spectrum in an error buffer (the same error-
feedback construction later formalized by PowerSGD). Tensors are reshaped
to 2-D as ``(dim0, rest)``; for 0/1-D tensors (biases, batch-norm
parameters) low-rank factorization is meaningless — §6's generality
critique in action — and the context falls back to raw float32 transmission
of the accumulated value.

Wire format: ``rank`` float32 columns of ``U * S`` followed by ``rank``
float32 rows of ``V^T``, costing ``4 * rank * (rows + cols)`` bytes —
a large saving whenever ``rank << rows*cols/(rows+cols)``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage

__all__ = ["SufficientFactorCompressor"]


def _matrix_shape(shape: tuple[int, ...]) -> tuple[int, int] | None:
    """2-D view used for factorization, or ``None`` when not factorable."""
    if len(shape) < 2:
        return None
    rows = int(shape[0])
    cols = 1
    for dim in shape[1:]:
        cols *= int(dim)
    if rows < 2 or cols < 2:
        return None
    return rows, cols


class _LowRankContext(CompressorContext):
    def __init__(self, shape: tuple[int, ...], rank: int):
        super().__init__(shape)
        self.rank = rank
        self.matrix_shape = _matrix_shape(self.shape)
        self.buffer = ErrorAccumulationBuffer(self.shape)

    def compress(self, tensor: np.ndarray) -> CompressionResult:
        arr = self._check_shape(tensor, finite=True)
        accumulated = self.buffer.accumulate(arr)
        if self.matrix_shape is None:
            # Generality fallback: biases and scalars go uncompressed.
            payload = accumulated.astype("<f4").tobytes()
            message = WireMessage(
                codec_id=CodecId.LOW_RANK,
                shape=arr.shape,
                payload=payload,
                scalars=(0.0,),  # rank 0 marks the raw-float32 fallback
                dtype=np.float32,
            )
            reconstruction = accumulated.astype(np.float32)
            self.buffer.subtract(reconstruction)
            return CompressionResult(message, reconstruction)

        rows, cols = self.matrix_shape
        matrix = accumulated.reshape(rows, cols)
        rank = min(self.rank, rows, cols)
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        us = (u[:, :rank] * s[:rank]).astype("<f4")
        vt_r = vt[:rank].astype("<f4")
        message = WireMessage(
            codec_id=CodecId.LOW_RANK,
            shape=arr.shape,
            payload=us.tobytes() + vt_r.tobytes(),
            scalars=(float(rank),),
            dtype=np.float32,
        )
        reconstruction = (
            (us.astype(np.float32) @ vt_r.astype(np.float32))
            .reshape(self.shape)
            .astype(np.float32)
        )
        self.buffer.subtract(reconstruction)
        return CompressionResult(message, reconstruction)

    def residual_norm(self) -> float:
        return self.buffer.l2_norm()

    def state_dict(self) -> dict:
        return {"residual": self.buffer.residual.copy()}

    def load_state(self, state: dict) -> None:
        self.buffer.load_residual(self._checked_residual(state))


class SufficientFactorCompressor(Compressor):
    """``sufficient factors (rank r)``: truncated-SVD factor transmission.

    Parameters
    ----------
    rank:
        Number of singular triplets to transmit per 2-D tensor. Rank 1 is
        the classical sufficient-factor broadcast; higher ranks trade
        traffic for fidelity.
    """

    def __init__(self, rank: int = 1):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self.name = f"sufficient factors (rank {rank})"

    def make_context(
        self, shape: tuple[int, ...], *, key: tuple[object, ...] = ()
    ) -> CompressorContext:
        return _LowRankContext(shape, self.rank)

    def decompress(self, message: WireMessage) -> np.ndarray:
        if message.codec_id is not CodecId.LOW_RANK:
            raise ValueError(f"not a low-rank message: {message.codec_id!r}")
        (rank_f,) = message.checked_scalars(1, nonnegative=True)
        rank = int(rank_f)
        if rank == 0:
            raw = message.payload_array("<f4", "low-rank raw fallback")
            return raw.astype(np.float32)
        matrix_shape = _matrix_shape(message.shape)
        if matrix_shape is None:
            raise ValueError("factored message for a non-factorable shape")
        rows, cols = matrix_shape
        expected = 4 * rank * (rows + cols)
        if len(message.payload) != expected:
            raise ValueError(
                f"low-rank payload is {len(message.payload)} bytes, "
                f"expected {expected}"
            )
        us = np.frombuffer(message.payload[: 4 * rank * rows], dtype="<f4").reshape(
            rows, rank
        )
        vt = np.frombuffer(message.payload[4 * rank * rows :], dtype="<f4").reshape(
            rank, cols
        )
        out = (us.astype(np.float32) @ vt.astype(np.float32)).reshape(message.shape)
        return out.astype(np.float32)
