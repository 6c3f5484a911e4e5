"""The per-transmit ring all-reduce, kept as the parity oracle.

This is ``RingAllReduce`` as it stood before the hops went lockstep
(commit d95c348), code verbatim: one ring per tensor, one ``ctx.compress``
and one ``decompress`` per (sender, chunk) send. ``test_ring_parity.py``
holds the batched ring in ``src/`` to it bit for bit — outputs, wire
bytes, link bytes and every error-feedback residual.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, CompressorContext
from repro.distributed.allreduce import ReduceResult, chunk_bounds

__all__ = ["OracleRingAllReduce"]


class OracleRingAllReduce:
    """One tensor per ring; see ``repro.distributed.allreduce.RingAllReduce``."""

    def __init__(
        self,
        num_nodes: int,
        shape: tuple[int, ...],
        compressor: Compressor | None = None,
    ):
        if num_nodes < 2:
            raise ValueError(f"a ring needs >= 2 nodes, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.shape = tuple(int(d) for d in shape)
        self.compressor = compressor
        size = int(np.prod(self.shape)) if self.shape else 1
        self.bounds = chunk_bounds(size, self.num_nodes)
        # One persistent context per (sender, phase, chunk): reduce-scatter
        # payloads and all-gather payloads have different statistics.
        self._contexts: dict[tuple[int, str, int], CompressorContext] = {}

    def _transmit(
        self, sender: int, phase: str, chunk: int, payload: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Send one chunk across one link; returns (received, wire_bytes)."""
        if self.compressor is None:
            return payload.copy(), payload.size * 4
        key = (sender, phase, chunk)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self.compressor.make_context(
                payload.shape, key=("ring", phase, sender, chunk)
            )
            self._contexts[key] = ctx
        result = ctx.compress(payload)
        if result is None:
            raise ValueError(
                f"{self.compressor.name!r} deferred a hop transmission; "
                "schedule-changing schemes cannot run on a ring"
            )
        return (
            np.asarray(self.compressor.decompress(result.message), dtype=np.float32),
            result.wire_size,
        )

    def reduce(
        self, tensors: list[np.ndarray], *, average: bool = True
    ) -> ReduceResult:
        """All-reduce one tensor per node around the ring."""
        if len(tensors) != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} tensors, got {len(tensors)}"
            )
        flats = []
        for t in tensors:
            arr = np.asarray(t, dtype=np.float32)
            if arr.shape != self.shape:
                raise ValueError(f"tensor shape {arr.shape} != ring {self.shape}")
            flats.append(arr.reshape(-1).copy())

        n = self.num_nodes
        wire = 0
        link_bytes = [0] * n  # link i: node i -> node (i+1) % n
        # Phase 1: reduce-scatter.
        for hop in range(n - 1):
            updates = []
            for rank in range(n):
                chunk = (rank - hop) % n
                lo, hi = self.bounds[chunk]
                received, nbytes = self._transmit(
                    rank, "reduce", chunk, flats[rank][lo:hi]
                )
                wire += nbytes
                link_bytes[rank] += nbytes
                updates.append(((rank + 1) % n, chunk, received))
            for dest, chunk, received in updates:
                lo, hi = self.bounds[chunk]
                flats[dest][lo:hi] += received
        # Phase 2: all-gather the completed chunks.
        for hop in range(n - 1):
            updates = []
            for rank in range(n):
                chunk = (rank + 1 - hop) % n
                lo, hi = self.bounds[chunk]
                received, nbytes = self._transmit(
                    rank, "gather", chunk, flats[rank][lo:hi]
                )
                wire += nbytes
                link_bytes[rank] += nbytes
                updates.append(((rank + 1) % n, chunk, received))
            for dest, chunk, received in updates:
                lo, hi = self.bounds[chunk]
                flats[dest][lo:hi] = received

        if average:
            for flat in flats:
                flat /= np.float32(n)
        size = flats[0].size
        baseline = 2 * (n - 1) * size * 4  # sum of per-node chunk traffic
        return ReduceResult(
            outputs=[flat.reshape(self.shape) for flat in flats],
            wire_bytes=wire,
            baseline_bytes=baseline,
            max_link_bytes=max(link_bytes) if link_bytes else 0,
        )
