"""Sharded parameter service: the multi-server half of Figure 1.

The paper's architecture diagram shows several parameter servers, each
storing "a partition of the global model" (§2), though its evaluation uses
a single server machine (§5.2). This module supplies the multi-server
generality: parameters are partitioned across ``num_shards`` independent
:class:`~repro.distributed.server.ParameterServer` instances, each running
its own aggregation, optimizer state, and shared pull compression for its
subset — exactly the per-tensor independence that makes 3LC's
point-to-point contexts shard-trivial (a compression context never spans
servers, so sharding needs no codec changes at all).

What sharding buys is *uplink load spreading*: the single server's hot
link carries all push and pull bytes; K shards divide that by roughly the
partition balance. The bytes are counted once, on each frame's recorded
``shard<k>`` route (see :mod:`repro.netsim.links`). The greedy
largest-first partitioner keeps shard loads within one largest-tensor of
each other — adequate for DNN models whose tensor-size distribution is a
few large conv/FC tensors plus many small ones.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, check_frame_labels
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.distributed.server import ParameterServer, PullBatch
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = [
    "partition_parameters",
    "shard_owner_map",
    "ShardedParameterService",
]


def partition_parameters(
    sizes: dict[str, int], num_shards: int
) -> list[list[str]]:
    """Greedy largest-first partition of tensors across shards.

    Returns ``num_shards`` name lists (some possibly empty when there are
    fewer tensors than shards). Deterministic: ties break on name.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    for name, size in sizes.items():
        if size < 0:
            raise ValueError(f"tensor {name!r} has negative size {size}")
    loads = [0] * num_shards
    shards: list[list[str]] = [[] for _ in range(num_shards)]
    for name in sorted(sizes, key=lambda n: (-sizes[n], n)):
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        shards[target].append(name)
        loads[target] += sizes[name]
    return shards


def shard_owner_map(sizes: dict[str, int], num_shards: int) -> dict[str, int]:
    """Tensor name → owning shard index, from the greedy partition.

    The wire plan's view of the partition the sharded service holds (its
    ``partition``, inverted the same way) — shard-purity of fused buckets
    depends on both sides agreeing on this map exactly.
    """
    return {
        name: idx
        for idx, names in enumerate(partition_parameters(sizes, num_shards))
        for name in names
    }


class ShardedParameterService:
    """``num_shards`` parameter servers behind one aggregate interface.

    Drop-in equivalent of a single :class:`ParameterServer` for BSP-style
    stepping: :meth:`step` fans each worker's pushes out to the owning
    shards, steps every shard, and merges the pull batches. Shards step in
    lock-step (the paper's fine-grained barriers, §2.1, permit per-layer
    progress, which per-shard stepping models at shard granularity).

    Parameters
    ----------
    parameters:
        Initial global model parameters.
    optimizer_factory:
        Zero-argument callable producing one optimizer *per shard*
        (optimizer slots are per-parameter, so sharding them is exact).
    schedule / scheme / num_workers / small_tensor_threshold:
        As for :class:`ParameterServer`.
    num_shards:
        Number of server nodes to partition the model across.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer_factory,
        schedule: Schedule,
        scheme: Compressor,
        *,
        num_workers: int,
        num_shards: int = 2,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.schedule = schedule
        self.scheme = scheme
        by_name = {p.name: p for p in parameters}
        if len(by_name) != len(parameters):
            raise ValueError("duplicate parameter names")
        self.partition = partition_parameters(
            {p.name: p.size for p in parameters}, num_shards
        )
        self.num_shards = num_shards
        self._owner: dict[str, int] = {
            name: idx for idx, names in enumerate(self.partition) for name in names
        }
        # A fused frame has one wire destination, so a bucket must be
        # shard-pure: the engine builds plans partitioned on the identical
        # greedy owner map, and this check catches any caller handing in
        # an unpartitioned (or differently partitioned) plan.
        bucket_owner: dict[int, int] = {}
        for bucket in fusion_plan.buckets:
            owners = {self._owner[name] for name in bucket.names}
            if len(owners) != 1:
                raise ValueError(
                    f"fused bucket {bucket.index} spans shards "
                    f"{sorted(owners)}; build the plan with the sharded "
                    "topology's partition (shard_owner_map)"
                )
            bucket_owner[bucket.index] = owners.pop()
        self.shards: list[ParameterServer] = [
            ParameterServer(
                [by_name[name] for name in shard_names],
                optimizer_factory(),
                schedule,
                scheme,
                num_workers=num_workers,
                small_tensor_threshold=small_tensor_threshold,
                fusion_plan=fusion_plan.restrict(
                    index for index, owner in bucket_owner.items() if owner == idx
                ),
            )
            for idx, shard_names in enumerate(self.partition)
        ]
        #: Merged name → parameter view across all shards. Shard membership
        #: is fixed at construction and Parameter objects are stable, so
        #: the merge is computed once (the engine reads this per step).
        self.params: dict[str, Parameter] = {}
        for shard in self.shards:
            self.params.update(shard.params)
        #: Frame label → owning shard, in the merged pull's wire order (the
        #: order the ledger records): every shard's per-tensor frames, then
        #: every shard's buckets.
        self._frame_owner: dict[str, int] = dict(
            sorted(
                (
                    (label, idx)
                    for idx, shard in enumerate(self.shards)
                    for label in shard.stream.contexts
                ),
                key=lambda item: item[0] not in self.params,
            )
        )

    @property
    def bypassed(self) -> set[str]:
        out: set[str] = set()
        for shard in self.shards:
            out |= shard.bypassed
        return out

    @property
    def global_step(self) -> int:
        return self.shards[0].global_step if self.shards else 0

    def shard_of(self, name: str) -> int:
        """Index of the server owning ``name``."""
        try:
            return self._owner[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def state_dict(self) -> dict[str, np.ndarray]:
        """Merged snapshot of the partitioned global model."""
        merged: dict[str, np.ndarray] = {}
        for shard in self.shards:
            merged.update(shard.state_dict())
        return merged

    def _split(self, messages, sender=None) -> list[dict[str, WireFrame | None]]:
        """One frame mapping per shard — the wire plan guarantees every
        frame one owner, so the split is a dict lookup. The full set is
        checked first, so a bad push fails before any shard steps."""
        check_frame_labels(messages, self._frame_owner, sender)
        split: list[dict[str, WireFrame | None]] = [{} for _ in self.shards]
        for label, frame in messages.items():
            split[self._frame_owner[label]][label] = frame
        return split

    def step(
        self,
        pushes: list[dict[str, WireFrame | None]],
        divisor: int | None = None,
    ) -> PullBatch:
        """Aggregate, update, and compress pulls across every shard.

        Each worker's frames — per-tensor and bucket alike — fan out to
        their owning shards.
        """
        per_shard_pushes: list[list[dict[str, WireFrame | None]]] = [
            [] for _ in self.shards
        ]
        for position, worker_push in enumerate(pushes):
            for idx, part in enumerate(self._split(worker_push, position)):
                per_shard_pushes[idx].append(part)

        merged: dict[str, WireFrame | None] = {}
        decompress = compress = 0.0
        for idx, shard in enumerate(self.shards):
            if not shard.params:
                continue
            batch = shard.step(per_shard_pushes[idx], divisor)
            merged.update(batch.messages)
            decompress += batch.decompress_seconds
            compress += batch.compress_seconds
        messages = {label: merged[label] for label in self._frame_owner}
        return PullBatch(messages, decompress, compress)

    #: One BSP step, as a single server runs it: :meth:`step`, then a
    #: timed :meth:`decompress_pulls`.
    STAGES = ParameterServer.STAGES
    exchange = ParameterServer.exchange

    def decompress_pulls(self, messages) -> dict[str, np.ndarray]:
        """Decode one step's merged pull frames, each via its owning shard."""
        deltas: dict[str, np.ndarray] = {}
        for shard, part in zip(self.shards, self._split(messages)):
            deltas.update(shard.decompress_pulls(part))
        return deltas
