"""Topology adapters: from an exchange plan to a link model.

The exchange layer stamps every recorded transmission with a *route*
(:func:`repro.exchange.topology.transmission_routes`); this module builds
the matching :class:`~repro.netsim.links.LinkModel` from the topology's
registry name, so the harness can simulate any configuration it can
train.
"""

from __future__ import annotations

from repro.netsim.links import (
    LinkModel,
    hierarchical_links,
    ring_links,
    sharded_links,
    single_server_links,
)
from repro.network.bandwidth import LinkSpec

__all__ = ["link_model_for"]


def link_model_for(
    topology: str,
    spec: LinkSpec,
    *,
    num_shards: int = 2,
    num_workers: int = 4,
    racks: int = 2,
    rack_size: int = 2,
    cross_bw_fraction: float = 0.1,
    cross_rtt_seconds: float = 0.0,
    hier_upper: str = "single",
) -> LinkModel:
    """Build the link model for one of the engine's exchange topologies.

    Parameters
    ----------
    topology:
        Registry name: ``"single"`` | ``"sharded"`` | ``"ring"`` |
        ``"hier"``.
    spec:
        Per-link bandwidth (all links of a flat topology share one rate,
        as in the paper's tc-emulated testbed). For the hierarchical
        topology this is the *intra-rack* rate; cross-rack uplinks run at
        ``cross_bw_fraction`` of it with ``cross_rtt_seconds`` of
        propagation delay — the scarce tier the paper targets.
    num_shards / num_workers:
        Shape knobs for the sharded and ring models (ignored otherwise).
    racks / rack_size / cross_bw_fraction / cross_rtt_seconds / hier_upper:
        Shape of the hierarchical fabric (ignored otherwise).
    """
    if topology == "single":
        return single_server_links(spec)
    if topology == "sharded":
        return sharded_links(spec, num_shards)
    if topology == "ring":
        return ring_links(spec, num_workers)
    if topology == "hier":
        if cross_bw_fraction <= 0:
            raise ValueError(
                f"cross_bw_fraction must be > 0, got {cross_bw_fraction!r}"
            )
        cross = LinkSpec(
            f"{spec.name}-cross",
            spec.bits_per_second * cross_bw_fraction,
            rtt_seconds=cross_rtt_seconds,
        )
        return hierarchical_links(
            spec,
            cross,
            racks=racks,
            rack_size=rack_size,
            upper=hier_upper,
            num_shards=num_shards,
        )
    raise ValueError(
        f"unknown topology {topology!r}; expected 'single', 'sharded', "
        "'ring', or 'hier'"
    )
