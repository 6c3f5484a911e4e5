"""The wire-plan layer: how a topology frames small tensors on the wire.

The :class:`~repro.compression.fusion.FusionPlan` is a first-class object
the *topology* owns: :func:`build_wire_plan` asks the topology for its
partition function (:meth:`~repro.exchange.topology.ExchangeTopology.fusion_partition`)
— which shard owns each tensor, which uplink a hierarchical aggregate
crosses — and builds a partition-aware plan whose buckets never span a
wire destination. Every sender then holds one
:class:`~repro.compression.fusion.WireStream` per direction under that
plan (a plan with no buckets is fusion off), exchanges one
:class:`~repro.core.packets.FusedWireMessage` per bucket per destination
beside the per-tensor frames, and the simulator schedules the fused frames
like any other record.

The compatibility rules live here too, as *data* (one message per illegal
combination): ``EngineConfig`` raises them at construction time, and the
CLI and the plan tuner report whatever the config raised.
"""

from __future__ import annotations

from repro.compression.fusion import FusionPlan, build_fusion_plan

__all__ = ["build_wire_plan", "fusion_incompatibility"]


def fusion_incompatibility(topology: str) -> str | None:
    """Why fused buckets cannot run on this topology, or ``None``.

    Raised by :class:`~repro.exchange.engine.EngineConfig` validation and
    by the ring topology itself, with identical wording. Fusion composes
    with every sync mode (BSP shared pulls, async/SSP per-worker fused
    pull streams), so only the flat ring rules it out: it exchanges raw
    gradients per hop, and there is no point-to-point framing to fuse.
    """
    if topology == "ring":
        return (
            "the ring exchanges raw gradients per hop; fused buckets only "
            "apply to point-to-point push/pull framing"
        )
    return None


def build_wire_plan(
    topology,
    shapes: dict[str, tuple[int, ...]],
    *,
    threshold: int,
    bucket_elements: int,
    lossy: bool = False,
    boundaries: frozenset[str] | None = None,
) -> FusionPlan:
    """Build the topology's partition-aware fusion plan.

    ``topology`` is an :class:`~repro.exchange.topology.ExchangeTopology`;
    its :meth:`fusion_partition` supplies the tensor → destination map the
    buckets must respect (``None`` for single-destination topologies).
    The plan has no buckets when no tensor falls below the threshold.
    """
    if not topology.supports_fusion:
        raise ValueError(
            f"topology {topology.name!r} does not support the fused-bucket "
            "path"
        )
    partition = topology.fusion_partition(
        {name: _size(shape) for name, shape in shapes.items()}
    )
    return build_fusion_plan(
        shapes,
        threshold=threshold,
        bucket_elements=bucket_elements,
        partition=partition,
        lossy=lossy,
        boundaries=boundaries,
    )


def _size(shape: tuple[int, ...]) -> int:
    count = 1
    for dim in shape:
        count *= int(dim)
    return count
