"""Sharded parameter service: the multi-server half of Figure 1.

The paper's architecture diagram shows several parameter servers, each
storing "a partition of the global model" (§2), though its evaluation uses
a single server machine (§5.2). 3LC keeps one compression context per
tensor, so a partition changes no arithmetic — only which NIC each frame
crosses. A sharded service is therefore one
:class:`~repro.distributed.server.ParameterServer` over the whole model
plus an owner map, and :func:`repro.exchange.transmission_routes` puts
every frame on its owner's ``shard<k>`` route.

What sharding buys is *uplink load spreading*: the single server's hot
link carries all push and pull bytes; K shards divide that by roughly the
partition balance. The greedy largest-first partitioner keeps shard loads
within one largest-tensor of each other — adequate for DNN models whose
tensor-size distribution is a few large conv/FC tensors plus many small
ones.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan
from repro.distributed.server import ParameterServer
from repro.nn.optimizer import MomentumSGD
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = ["partition_parameters", "shard_owner_map", "ShardedParameterService"]


def partition_parameters(sizes: dict[str, int], num_shards: int) -> list[list[str]]:
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


class ShardedParameterService(ParameterServer):
    """A :class:`ParameterServer` whose model is partitioned across
    ``num_shards`` server NICs.

    The server holds its parameters in partition order (shard-major, each
    shard's tensors in greedy order) and its plan's buckets stably sorted
    by owning shard, so every pull lists each shard's per-tensor frames,
    then each shard's buckets — the wire order the ledger records. The
    other arguments are as for :class:`ParameterServer`.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer: MomentumSGD,
        schedule: Schedule,
        scheme: Compressor,
        num_workers: int,
        *,
        num_shards: int = 2,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        by_name = {p.name: p for p in parameters}
        if len(by_name) != len(parameters):
            raise ValueError("duplicate parameter names")
        sizes = {name: p.size for name, p in by_name.items()}
        self.partition = partition_parameters(sizes, num_shards)
        self.num_shards = num_shards
        self._owner = shard_owner_map(sizes, num_shards)
        # A fused frame has one wire destination, so a bucket must be
        # shard-pure: the engine builds plans partitioned on the identical
        # greedy owner map, and this check catches any caller handing in
        # an unpartitioned (or differently partitioned) plan.
        for bucket in fusion_plan.buckets:
            owners = {self._owner[name] for name in bucket.names}
            if len(owners) != 1:
                raise ValueError(
                    f"fused bucket {bucket.index} spans shards "
                    f"{sorted(owners)}; build the plan with the sharded "
                    "topology's partition (shard_owner_map)"
                )
        buckets = sorted(fusion_plan.buckets, key=lambda b: self._owner[b.names[0]])
        super().__init__(
            [by_name[name] for names in self.partition for name in names],
            optimizer, schedule, scheme, num_workers,
            fusion_plan=replace(fusion_plan, buckets=tuple(buckets)),
        )

    # Re-bound here only so the span target
    # ``repro.distributed.sharding.ShardedParameterService.step`` (perf/)
    # resolves to a plain function in this class's own namespace.
    step = ParameterServer.step

    def shard_of(self, name: str) -> int:
        """Index of the server owning ``name``."""
        try:
            return self._owner[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None
