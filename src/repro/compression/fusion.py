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
  wire; the claims ledger's ``fusion.lossy_accuracy`` row measures the cost.

A :class:`WireStream` is what workers, servers and the engine actually
hold: every context one sender needs for one direction under a plan — a
per-tensor context for each tensor the plan leaves alone, a fused context
for each bucket — behind one ``compress`` / ``decompress`` pair that speaks
one ordered mapping of :class:`WireFrame` entries. Fusion off is the plan
with no buckets; nothing outside this module branches on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.compression.base import restore_contexts, snapshot_contexts
from repro.core.packets import FusedWireMessage

__all__ = [
    "Bucket",
    "FusionPlan",
    "build_fusion_plan",
    "WireFrame",
    "FusedBucketContext",
    "split_bucket",
    "bucket_label",
    "WireStream",
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

    Bucket indices are identifiers, not positions: a
    :class:`~repro.distributed.sharding.ShardedParameterService` sorts the
    buckets by owning shard (its pull's wire order) and each keeps its
    ``bucket:<index>`` label, so its frames match the workers' own plan's.
    Use :meth:`bucket` to resolve an index.

    The plan with no buckets (``FusionPlan()``) is "fusion off": every
    tensor keeps its own frame.
    """

    buckets: tuple[Bucket, ...] = ()
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


class WireFrame:
    """One transmitted frame of a :class:`WireStream`.

    A per-tensor frame has one member and carries the plain
    :class:`~repro.core.packets.WireMessage` its context produced; a bucket
    frame lists the bucket's members and carries one
    :class:`~repro.core.packets.FusedWireMessage`.
    """

    __slots__ = ("names", "message", "parts")

    def __init__(self, names: tuple[str, ...], message, parts: dict[str, np.ndarray]):
        #: Member tensors, in the order the frame packs them.
        self.names = names
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

    def __init__(self, bucket: Bucket, inner) -> None:
        self.bucket = bucket
        self.inner = inner
        if tuple(inner.shape) != (bucket.total_elements,):
            raise ValueError(
                f"inner context shape {inner.shape} != bucket flat shape "
                f"({bucket.total_elements},)"
            )

    def compress(self, tensors: dict[str, np.ndarray]) -> WireFrame | None:
        """Concatenate the bucket members and compress them in one call."""
        flat = np.concatenate(
            [
                np.asarray(tensors[name], dtype=np.float32).reshape(-1)
                for name in self.bucket.names
            ]
        )
        result = self.inner.compress(flat)
        if result is None:
            return None
        message = FusedWireMessage(inner=result.message, shapes=self.bucket.shapes)
        return WireFrame(
            self.bucket.names,
            message,
            split_bucket(result.reconstruction, self.bucket),
        )

    def residual_norm(self) -> float:
        return self.inner.residual_norm()

    def state_dict(self) -> dict:
        return self.inner.state_dict()

    def load_state(self, state: dict) -> None:
        self.inner.load_state(state)


def bucket_label(index: int) -> str:
    """Frame label of fused bucket ``index`` — the name its wire records carry."""
    return f"bucket:{index}"


class WireStream:
    """One sender's compression contexts for one direction, under a plan.

    3LC keeps one context per tensor per direction (paper §3, Figure 2) and
    routes small tensors around the lossy codec (§5.1); a
    :class:`FusionPlan` regroups those small tensors into buckets. The
    stream applies that rule once: tensors outside the plan get a bypass
    context below ``threshold`` elements and the scheme's own context at or
    above it, keyed ``(kind, *owner, name)``; each bucket gets a fused
    context keyed ``(kind + "-fused", *owner, index)``. ``kind`` / ``owner``
    name the direction and the sender (``"push"`` / worker, ``"pull"`` /
    nobody, ``"hpush"`` / rack …), so stochastic schemes draw independent,
    reproducible randomness per stream.

    Frames travel as one ordered ``{label: WireFrame | None}`` mapping —
    per-tensor frames under their tensor's name in registration order, then
    ``bucket:<index>`` frames in plan order; ``None`` marks a frame the
    scheme deferred this step. Decoding is stateless and depends only on
    the layout, so a receiver decodes with its own stream of the same
    ``(shapes, threshold, plan)``.
    """

    def __init__(
        self,
        scheme,
        shapes: dict[str, tuple[int, ...]],
        *,
        threshold: int,
        plan: FusionPlan,
        kind: str,
        owner: tuple = (),
    ) -> None:
        self.scheme = scheme
        self.plan = plan
        bypassed = set(plan.fused_names)
        #: label -> context, in wire order.
        self.contexts: dict[str, object] = {}
        for name, shape in shapes.items():
            if name in bypassed:
                continue
            key = (kind, *owner, name)
            if math.prod(shape) < threshold:
                bypassed.add(name)
                self.contexts[name] = scheme.make_bypass_context(shape, key=key)
            else:
                self.contexts[name] = scheme.make_context(shape, key=key)
        self._tensor_labels = tuple(self.contexts)
        self._buckets = {bucket_label(b.index): b for b in plan.buckets}
        for label, bucket in self._buckets.items():
            self.contexts[label] = scheme.make_fused_context(
                bucket, key=(f"{kind}-fused", *owner, bucket.index), lossy=plan.lossy
            )
        #: Tensors that skip the lossy per-tensor codec: bucket members and
        #: everything below the threshold.
        self.bypassed = frozenset(bypassed)

    def compress(self, tensors: dict[str, np.ndarray]) -> dict[str, WireFrame | None]:
        """One frame per context from this step's named tensors."""
        frames: dict[str, WireFrame | None] = {}
        for name in self._tensor_labels:
            result = self.contexts[name].compress(tensors[name])
            frames[name] = (
                None
                if result is None
                else WireFrame((name,), result.message, {name: result.reconstruction})
            )
        for label in self._buckets:
            frames[label] = self.contexts[label].compress(tensors)
        return frames

    def decode_tensor(self, name: str, message) -> np.ndarray:
        """Decode one per-tensor frame's message."""
        if name in self.bypassed:
            return self.scheme.decompress_bypass(message)
        return self.scheme.decompress(message)

    def decode_bucket(self, index: int, message) -> dict[str, np.ndarray]:
        """Decode one bucket frame into its named members (one codec call)."""
        flat = self.scheme.decompress_fused(message, lossy=self.plan.lossy)
        return split_bucket(flat, self.plan.bucket(index))

    def decompress(
        self, frames, *, sender=None, decode_tensor=None, decode_bucket=None
    ) -> dict[str, np.ndarray]:
        """Named tensors of every transmitted frame in ``frames``.

        ``frames`` must hold exactly this stream's labels (deferred frames
        as ``None``): a missing or unknown frame means the sender was built
        under a different wire plan, and skipping it would leave tensors
        silently un-updated, so it raises naming the labels and ``sender``.
        The per-frame decoders default to the stream's own; a service
        passes its public per-frame methods to keep them the one decode
        path.
        """
        if frames.keys() != self.contexts.keys():
            missing = [label for label in self.contexts if label not in frames]
            unknown = [label for label in frames if label not in self.contexts]
            origin = "" if sender is None else f" from sender {sender}"
            raise ValueError(
                f"frames{origin} do not match the wire plan: "
                f"missing {missing}, unknown {unknown}"
            )
        decode_tensor = decode_tensor or self.decode_tensor
        decode_bucket = decode_bucket or self.decode_bucket
        tensors: dict[str, np.ndarray] = {}
        for label, frame in frames.items():
            if frame is None:
                continue
            bucket = self._buckets.get(label)
            if bucket is None:
                tensors[label] = decode_tensor(label, frame.message)
            else:
                tensors.update(decode_bucket(bucket.index, frame.message))
        return tensors

    def residual_norms(self) -> dict[str, float]:
        """Per-frame error-buffer norms (diagnostics)."""
        return {label: ctx.residual_norm() for label, ctx in self.contexts.items()}

    def state_dict(self) -> dict:
        """Checkpoint of every context's cross-step state, keyed by label."""
        return snapshot_contexts(self.contexts)

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; the label sets must match."""
        restore_contexts(self.contexts, state)
