"""Fused-bucket compression: many small tensors, one codec call.

The per-tensor compression contexts of the paper's design are ideal for the
few large conv/FC tensors that dominate a DNN's bytes, but a model also has
*many* tiny tensors (batch-norm scale/shift, biases) that each pay a full
frame header and a full Python round-trip through the codec. Gradient-fusion
systems solve this by flattening and concatenating small tensors into fixed
capacity buckets and compressing each bucket in one shot; this module brings
that hot path to the reproduction.

A :class:`FusionPlan` deterministically assigns every below-threshold tensor
to a :class:`Bucket` (both sides of a link derive the identical plan from the
parameter list, so bucket membership never travels on the wire). Plans are
**partition-aware**: :func:`build_fusion_plan` accepts a ``partition``
function mapping each tensor name to a destination key — a shard of a
:class:`~repro.distributed.sharding.ShardedParameterService`, the cross-rack
uplink of a hierarchical exchange — and never lets a bucket span two keys,
so one fused frame always has exactly one destination on the wire.

A :class:`FusedBucketContext` owns one inner
:class:`~repro.compression.base.CompressorContext` of the bucket's flat shape
and compresses the concatenated bucket with a single codec call, framing the
result as one :class:`~repro.core.packets.FusedWireMessage` — one header and
one CRC instead of dozens.

Two codec modes exist per plan:

* **exact** (``lossy=False``, the default) — the inner context is the raw
  float32 *bypass* codec, so fused and per-tensor transmission reconstruct
  bit-identical values; only framing and call count change.
* **lossy** (``lossy=True``) — the inner context is the scheme's own lossy
  codec applied once to the whole concatenated bucket, i.e. one *shared*
  quantization scale per bucket instead of one per tensor. Cheaper on the
  wire; the accuracy cost is measured in ``benchmarks/bench_fusion.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.packets import FusedWireMessage

__all__ = [
    "Bucket",
    "FusionPlan",
    "build_fusion_plan",
    "FusedCompressionResult",
    "FusedBucketContext",
    "compress_fused_batch",
    "split_bucket",
]


@dataclass(frozen=True)
class Bucket:
    """One fused bucket: an ordered set of tensors sharing a frame.

    ``group`` is the partition key every member maps to (``None`` for
    unpartitioned plans): the single wire destination this bucket's frames
    travel to — a shard index, a cross-rack uplink label. Hashable so
    services can key per-destination routing on it.
    """

    index: int
    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    group: object | None = None

    def __post_init__(self) -> None:
        if len(self.names) != len(self.shapes):
            raise ValueError("names and shapes must align")
        if not self.names:
            raise ValueError("a bucket needs at least one tensor")

    # Cached: these sit on the per-step hot path (one lookup per tensor per
    # compress/split call), and a frozen dataclass recomputing them via
    # numpy reductions dominated the fused path's profile.
    @cached_property
    def total_elements(self) -> int:
        return sum(math.prod(s) for s in self.shapes)

    @cached_property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """Flat ``(start, stop)`` slice of each tensor within the bucket."""
        bounds = []
        start = 0
        for shape in self.shapes:
            count = math.prod(shape)
            bounds.append((start, start + count))
            start += count
        return tuple(bounds)


@dataclass(frozen=True)
class FusionPlan:
    """Deterministic assignment of small tensors to fused buckets.

    ``lossy`` selects the bucket codec mode (see the module docstring);
    every context and decode call derived from the plan follows it, so the
    flag travels with the plan instead of being threaded separately through
    workers, servers, and shards.

    Bucket indices are global identifiers, not positions: a
    :class:`~repro.distributed.sharding.ShardedParameterService` hands each
    shard a sub-plan holding only its buckets *with their original
    indices*, so push/pull dicts keyed by index merge without translation.
    Use :meth:`bucket` to resolve an index.
    """

    buckets: tuple[Bucket, ...]
    lossy: bool = False

    @property
    def fused_names(self) -> frozenset[str]:
        return frozenset(n for b in self.buckets for n in b.names)

    @cached_property
    def _by_index(self) -> dict[int, Bucket]:
        return {b.index: b for b in self.buckets}

    def bucket(self, index: int) -> Bucket:
        """Resolve a (global) bucket index."""
        try:
            return self._by_index[index]
        except KeyError:
            raise KeyError(f"plan has no bucket with index {index}") from None

    def restrict(self, indices) -> "FusionPlan | None":
        """Sub-plan holding only ``indices``, original indices preserved.

        Returns ``None`` when the restriction is empty, matching the
        "no plan" convention everywhere else.
        """
        wanted = set(indices)
        kept = tuple(b for b in self.buckets if b.index in wanted)
        if not kept:
            return None
        return FusionPlan(kept, lossy=self.lossy)

    def __len__(self) -> int:
        return len(self.buckets)


def build_fusion_plan(
    shapes: dict[str, tuple[int, ...]],
    *,
    threshold: int,
    bucket_elements: int,
    partition=None,
    lossy: bool = False,
    boundaries: frozenset[str] | None = None,
) -> FusionPlan:
    """Group every below-threshold tensor into capacity-bounded buckets.

    Tensors are visited in dict (= parameter registration) order, so every
    node derives the identical plan. A bucket closes when adding the next
    tensor would exceed ``bucket_elements`` (a single oversized tensor still
    gets its own bucket, though the threshold normally prevents that) — or
    when the next tensor's ``partition(name)`` key differs from the open
    bucket's, so no bucket ever spans two wire destinations. Partition keys
    must be hashable; ``partition=None`` means a single unpartitioned group.

    ``boundaries`` names tensors that force-close the open bucket before
    they are packed — explicit per-layer bucket boundaries the plan tuner
    searches over. Names not present in ``shapes`` (or above threshold)
    are ignored, so a boundary set transfers across models.
    """
    if bucket_elements < 1:
        raise ValueError(f"bucket_elements must be >= 1, got {bucket_elements}")
    # Group by destination first (first-appearance order), then pack each
    # group independently: two tensors that interleave in registration
    # order but live on different shards still pack densely within their
    # own destination's buckets.
    grouped: dict[object, list[tuple[str, tuple[int, ...]]]] = {}
    for name, shape in shapes.items():
        size = int(np.prod(shape)) if shape else 1
        if size >= threshold:
            continue
        key = partition(name) if partition is not None else None
        grouped.setdefault(key, []).append(
            (name, tuple(int(d) for d in shape))
        )

    buckets: list[Bucket] = []
    for key, members in grouped.items():
        names: list[str] = []
        bucket_shapes: list[tuple[int, ...]] = []
        used = 0

        def close() -> None:
            nonlocal names, bucket_shapes, used
            if names:
                buckets.append(
                    Bucket(
                        len(buckets), tuple(names), tuple(bucket_shapes), key
                    )
                )
                names, bucket_shapes, used = [], [], 0

        for name, shape in members:
            size = math.prod(shape) if shape else 1
            if names and (
                used + size > bucket_elements
                or (boundaries is not None and name in boundaries)
            ):
                close()
            names.append(name)
            bucket_shapes.append(shape)
            used += size
        close()
    return FusionPlan(tuple(buckets), lossy=lossy)


def split_bucket(flat: np.ndarray, bucket: Bucket) -> dict[str, np.ndarray]:
    """Slice a decoded flat bucket back into named, shaped tensors."""
    arr = np.asarray(flat).reshape(-1)
    if arr.size != bucket.total_elements:
        raise ValueError(
            f"bucket {bucket.index} expects {bucket.total_elements} elements, "
            f"got {arr.size}"
        )
    out: dict[str, np.ndarray] = {}
    for name, shape, (lo, hi) in zip(bucket.names, bucket.shapes, bucket.offsets):
        out[name] = arr[lo:hi].reshape(shape)
    return out


class FusedCompressionResult:
    """Output of one fused-bucket compression call."""

    __slots__ = ("message", "parts")

    def __init__(self, message: FusedWireMessage, parts: dict[str, np.ndarray]):
        self.message = message
        #: Per-tensor reconstruction (what the receiver will decode).
        self.parts = parts

    @property
    def wire_size(self) -> int:
        return self.message.wire_size


class FusedBucketContext:
    """Bucket-aware compression context: one codec call per bucket per step.

    Wraps an inner per-"tensor" context whose tensor is the flat bucket, so
    cross-step state (error buffers, deferral counters, a lossy codec's
    error feedback) composes unchanged. A ``None`` from the inner context
    (a deferring scheme) defers the whole bucket, matching what the
    per-tensor path would have done for each member individually.
    """

    def __init__(self, bucket: Bucket, inner, compressor=None) -> None:
        self.bucket = bucket
        self.inner = inner
        #: The scheme whose ``compress_batch`` may run ``inner`` beside other
        #: buckets' contexts; ``None`` for a bypass context, which runs alone.
        self.compressor = compressor
        if tuple(inner.shape) != (bucket.total_elements,):
            raise ValueError(
                f"inner context shape {inner.shape} != bucket flat shape "
                f"({bucket.total_elements},)"
            )

    def flatten(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """The bucket members, concatenated flat in bucket order."""
        return np.concatenate(
            [
                np.asarray(tensors[name], dtype=np.float32).reshape(-1)
                for name in self.bucket.names
            ]
        )

    def frame(self, result) -> FusedCompressionResult | None:
        """Wrap the inner context's result (``None``: the bucket deferred)."""
        if result is None:
            return None
        message = FusedWireMessage(inner=result.message, shapes=self.bucket.shapes)
        return FusedCompressionResult(
            message, split_bucket(result.reconstruction, self.bucket)
        )

    def compress(self, tensors: dict[str, np.ndarray]) -> FusedCompressionResult | None:
        """Concatenate the bucket members and compress them in one call."""
        return self.frame(self.inner.compress(self.flatten(tensors)))

    def residual_norm(self) -> float:
        return self.inner.residual_norm()

    def state_dict(self) -> dict:
        return self.inner.state_dict()

    def load_state(self, state: dict) -> None:
        self.inner.load_state(state)


def compress_fused_batch(items) -> list[FusedCompressionResult | None]:
    """Compress many ``(FusedBucketContext, tensors)`` pairs in one pass.

    Semantically ``[ctx.compress(tensors) for ctx, tensors in items]``, but
    the buckets compressed by one scheme's own codec go through that
    scheme's :meth:`~repro.compression.base.Compressor.compress_batch` —
    for 3LC one quantization, one quartic and one zero-run pass across all
    buckets of the step instead of one per bucket. Exact-mode buckets (the
    float32 bypass) compress on their own; results come back in input
    order, bit-identical to the per-bucket path either way.
    """
    items = list(items)
    inner_results = [None] * len(items)
    # scheme -> (positions, (inner context, flat bucket) pairs) of its buckets
    batches: dict[object, tuple[list[int], list[tuple]]] = {}
    for pos, (ctx, tensors) in enumerate(items):
        flat = ctx.flatten(tensors)
        if ctx.compressor is None:
            inner_results[pos] = ctx.inner.compress(flat)
        else:
            positions, pairs = batches.setdefault(ctx.compressor, ([], []))
            positions.append(pos)
            pairs.append((ctx.inner, flat))
    for compressor, (positions, pairs) in batches.items():
        for pos, result in zip(positions, compressor.compress_batch(pairs)):
            inner_results[pos] = result
    return [ctx.frame(result) for (ctx, _), result in zip(items, inner_results)]
