"""Ring all-reduce topology with per-hop tensor compression.

The paper's parameter-server architecture (§2, Figure 1) is one of two
dominant gradient-exchange topologies; the other — bandwidth-optimal ring
all-reduce — is what the in-datacenter frameworks the paper cites in §1
(performance studies [3, 25, 39, 41]) typically use. This module implements
the ring so the repository can answer the natural follow-up question the
paper leaves open: *does point-to-point compression compose with
all-reduce?*

A ring all-reduce over ``N`` nodes splits each tensor into ``N`` chunks
and runs two phases of ``N-1`` hops each:

* **reduce-scatter** — hop ``t`` sends chunk ``(rank - t) mod N`` to the
  right neighbour, which adds it to its local copy; after ``N-1`` hops
  node ``r`` holds the full sum of chunk ``(r+1) mod N``.
* **all-gather** — the completed chunks circulate unreduced so every node
  ends with the whole reduced tensor.

Each node transmits ``2 (N-1)/N`` of the tensor per reduction versus the
parameter server's ``2×`` per *worker* plus ``2N×`` at the server — the
ring has no bandwidth hotspot, which is exactly why compression matters
less there and why the paper's server-centric setting is where 3LC shines
(the comparison ``benchmarks/bench_allreduce.py`` quantifies this).

Compression composes per-hop: every (tensor, sender, phase, chunk) owns a
persistent compression context, so error feedback corrects each link's
quantization error across *training steps*. Lossy re-encoding of partial
sums at every hop compounds (N-1 lossy stages versus 3LC's one), which the
tests and bench surface as a reduced-fidelity sum — the quantitative
argument for the paper's point-to-point design.

The hops run in lockstep. Within one hop every send is independent — its
own sender, chunk and context — so a ring that reduces a *set* of tensors
collects the hop's sends across all tensors and all senders and pays one
``Compressor.compress_batch`` and one ``Compressor.decompress_batch`` for
them: ``2 (N-1)`` codec round-trips per reduction instead of
``2 (N-1) · N`` per tensor. Receivers still decode the wire message, and
the bytes, outputs and residuals are those of the per-send ring, which
``tests/distributed/ring_oracle.py`` keeps as the parity oracle.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping
from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor, CompressorContext

__all__ = ["RingAllReduce", "ReduceResult", "chunk_bounds"]


def chunk_bounds(size: int, parts: int) -> list[tuple[int, int]]:
    """Split ``size`` elements into ``parts`` contiguous chunks.

    Sizes differ by at most one element (the first ``size % parts`` chunks
    are one longer), matching the standard ring-allreduce partitioning.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    base, extra = divmod(size, parts)
    bounds = []
    start = 0
    for i in range(parts):
        length = base + (1 if i < extra else 0)
        bounds.append((start, start + length))
        start += length
    return bounds


@dataclass
class ReduceResult:
    """Outcome of one all-reduce invocation.

    Attributes
    ----------
    outputs:
        Per-node reduced tensors (averaged when ``average=True``). With a
        lossless compressor all entries are identical; lossy per-hop
        compression makes them *approximately* equal — the divergence is
        part of what the topology comparison measures.
    wire_bytes:
        Total bytes transmitted around the ring, all hops and nodes.
    baseline_bytes:
        Bytes an uncompressed float32 ring would have moved.
    max_link_bytes:
        The largest per-link volume — the quantity that sets step time on
        a bandwidth-bound network (every ring link carries roughly this).
    """

    outputs: list[np.ndarray]
    wire_bytes: int
    baseline_bytes: int
    max_link_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Baseline bytes over wire bytes (1.0 when uncompressed)."""
        if self.wire_bytes == 0:
            return float("inf") if self.baseline_bytes else 1.0
        return self.baseline_bytes / self.wire_bytes


class RingAllReduce:
    """Simulated ring all-reduce with optional per-hop compression.

    Parameters
    ----------
    num_nodes:
        Ring size (the paper's cluster would be 10).
    shape:
        Shape of the tensor each node contributes — or a mapping
        ``name -> shape`` for a ring that reduces a named *set* of tensors
        per call, all of them hop by hop in lockstep.
    compressor:
        Scheme applied to every hop's payload; ``None`` transmits raw
        float32 chunks. Contexts persist across calls, so error feedback
        works exactly as in the parameter-server cluster.
    bypass:
        Names (of a tensor set) that travel as raw float32 chunks whatever
        the compressor — the small-tensor bypass of §5.1.

    Notes
    -----
    Deferred transmission (``compress`` returning ``None``, as the
    N-local-steps scheme does) cannot be modelled on a ring — a hop must
    carry *something* for the reduction to proceed — so such schemes are
    rejected at the first deferral.

    Error feedback's contract is *integral*: residual left on a link at
    step ``t`` is transmitted at ``t+1``, which corrects consumers that
    accumulate outputs over time (SGD does: parameter updates integrate
    state changes). Repeated *standalone* reductions through one ring
    instance do not satisfy that assumption — leftover residual from one
    call leaks into the next, independent result — so build a fresh ring
    per reduction in that usage, or use a fine-grained codec.
    """

    def __init__(
        self,
        num_nodes: int,
        shape: tuple[int, ...] | Mapping[str, tuple[int, ...]],
        compressor: Compressor | None = None,
        *,
        bypass: Collection[str] = (),
    ):
        if num_nodes < 2:
            raise ValueError(f"a ring needs >= 2 nodes, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.compressor = compressor
        #: A lone tensor is the one-entry set under the name ``None``.
        self._lone = not isinstance(shape, Mapping)
        shapes = {None: shape} if self._lone else shape
        self.shapes = {
            name: tuple(int(d) for d in dims) for name, dims in shapes.items()
        }
        self.bounds = {
            name: chunk_bounds(math.prod(dims), self.num_nodes)
            for name, dims in self.shapes.items()
        }
        # The ring's wire geometry per tensor and reduction: each node sends
        # 2 (N-1)/N of the tensor (floored), as 2 (N-1) chunk frames on its
        # hop link — 2 (N-1) N frames over the whole ring.
        n = self.num_nodes
        self.sent_elements = {
            name: math.prod(dims) * 2 * (n - 1) // n
            for name, dims in self.shapes.items()
        }
        self.link_frames = 2 * (n - 1)
        self.frames = self.link_frames * n
        lossy = [
            name
            for name in self.shapes
            if compressor is not None and name not in bypass
        ]
        #: Hop order: the compressed tensors, then the raw-float ones.
        self._names = lossy + [name for name in self.shapes if name not in lossy]
        self._lossy_sends = len(lossy) * self.num_nodes
        # One persistent context per (tensor, sender, phase, chunk): reduce-
        # scatter payloads and all-gather payloads have different statistics.
        self._contexts: dict[
            tuple[str | None, int, str, int], CompressorContext
        ] = {}

    def _context(
        self, name: str | None, sender: int, phase: str, chunk: int, size: int
    ) -> CompressorContext:
        key = (name, sender, phase, chunk)
        ctx = self._contexts.get(key)
        if ctx is None:
            # No tensor name in the stream key: a stochastic scheme draws
            # the same streams for every tensor (and rack) on this link.
            ctx = self._contexts[key] = self.compressor.make_context(
                (size,), key=("ring", phase, sender, chunk)
            )
        return ctx

    def _send_lossy(
        self, phase: str, hop: int, sends: list[tuple]
    ) -> tuple[list[np.ndarray], list[int]]:
        """One hop's compressed sends: a single encode and a single decode.

        ``sends`` holds ``(name, sender, chunk, payload)``; returns what
        each receiver decodes *from the wire message* and the bytes sent.
        """
        items = [
            (self._context(name, sender, phase, chunk, payload.size), payload)
            for name, sender, chunk, payload in sends
        ]
        try:
            results = self.compressor.compress_batch(items)
        except ValueError as error:
            for name, sender, _, payload in sends:
                if not np.isfinite(payload).all():
                    tensor = "" if name is None else f"tensor {name!r}, "
                    raise ValueError(
                        f"non-finite ring payload ({tensor}{phase} hop {hop}, "
                        f"sender {sender}): {error}"
                    ) from error
            raise
        if any(result is None for result in results):
            raise ValueError(
                f"{self.compressor.name!r} deferred a hop transmission; "
                "schedule-changing schemes cannot run on a ring"
            )
        received = self.compressor.decompress_batch([r.message for r in results])
        return (
            [np.asarray(chunk, dtype=np.float32) for chunk in received],
            [result.wire_size for result in results],
        )

    def reduce(self, tensors: list, *, average: bool = True):
        """All-reduce one tensor (or one ``name -> tensor`` mapping) per node.

        Every hop collects the sends of all tensors and all senders — they
        share no state — and pays one batched encode and one batched decode
        for them. Returns a :class:`ReduceResult`, or one per name for a
        tensor set.
        """
        n = self.num_nodes
        if len(tensors) != n:
            raise ValueError(f"expected {n} tensors, got {len(tensors)}")
        # Row r of a tensor's buffer is node r's flat working copy.
        rows: dict[str | None, np.ndarray] = {}
        for name, shape in self.shapes.items():
            rows[name] = buffer = np.empty((n, math.prod(shape)), dtype=np.float32)
            for rank, contribution in enumerate(tensors):
                arr = np.asarray(
                    contribution if self._lone else contribution[name],
                    dtype=np.float32,
                )
                if arr.shape != shape:
                    raise ValueError(f"tensor shape {arr.shape} != ring {shape}")
                buffer[rank] = arr.reshape(-1)

        link_bytes = {name: [0] * n for name in self.shapes}  # link i: i -> i+1
        # Reduce-scatter, then all-gather of the completed chunks. Within a
        # hop no chunk is both sent and received, so sends read the rows
        # while receives land in them.
        for phase, lead in (("reduce", 0), ("gather", 1)):
            for hop in range(n - 1):
                sends = []
                for name in self._names:
                    buffer, bounds = rows[name], self.bounds[name]
                    for rank in range(n):
                        chunk = (rank + lead - hop) % n
                        lo, hi = bounds[chunk]
                        sends.append((name, rank, chunk, buffer[rank, lo:hi]))
                lossy = sends[: self._lossy_sends]
                arrived, sizes = (
                    self._send_lossy(phase, hop, lossy) if lossy else ([], [])
                )
                # A raw chunk arrives as it left, four bytes an element.
                for *_, payload in sends[self._lossy_sends :]:
                    arrived.append(payload)
                    sizes.append(payload.size * 4)
                for (name, rank, chunk, _), chunk_in, nbytes in zip(
                    sends, arrived, sizes
                ):
                    link_bytes[name][rank] += nbytes
                    lo, hi = self.bounds[name][chunk]
                    if phase == "reduce":
                        rows[name][(rank + 1) % n, lo:hi] += chunk_in
                    else:
                        rows[name][(rank + 1) % n, lo:hi] = chunk_in

        results = {}
        for name, shape in self.shapes.items():
            buffer = rows[name]
            if average:
                buffer /= np.float32(n)
            results[name] = ReduceResult(
                outputs=[row.reshape(shape) for row in buffer],
                wire_bytes=sum(link_bytes[name]),
                # Sum of per-node chunk traffic.
                baseline_bytes=2 * (n - 1) * buffer.shape[1] * 4,
                max_link_bytes=max(link_bytes[name]),
            )
        return results[None] if self._lone else results
