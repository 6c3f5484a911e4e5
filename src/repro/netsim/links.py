"""Link models: where each topology's bytes actually travel.

The analytic :class:`~repro.network.timing.StepTimeModel` charges every
byte to one shared server NIC, which is honest for the paper's evaluated
single-server setting and *dishonest* for the others: a sharded service
spreads load over independent server NICs, and a ring has no hotspot at
all. A :class:`LinkModel` names the individual links of a topology so the
scheduler can serialize transfers per link instead of globally.

Three shapes ship, one per exchange topology:

* :func:`single_server_links` — one ``"server"`` link carrying every push
  and every pull fan-out copy (the paper's bottleneck).
* :func:`sharded_links` — ``"shard0" .. "shard<K-1>"``, one independent
  NIC per parameter-server shard.
* :func:`ring_links` — one ``"ring"`` channel standing for the N
  point-to-point hop links, which operate in parallel and carry (nearly)
  identical volume in a ring collective; a record's ``wire_bytes`` is the
  *per-link* volume, so the channel's serialized time equals any single
  hop link's.
* :func:`hierarchical_links` — the first *composed* model: one fast
  ``"rack<r>"`` channel per rack (the rack's ring hop links, collapsed
  as for :func:`ring_links`) plus the slow cross-rack tier, one
  ``"cross:rack<r>"`` uplink per rack. Intra- and cross-tier specs are
  independent — asymmetric bandwidth and RTT is the regime the paper
  targets.
"""

from __future__ import annotations

from repro.network.bandwidth import LinkSpec

__all__ = [
    "LinkModel",
    "single_server_links",
    "sharded_links",
    "ring_links",
    "hierarchical_links",
]


class LinkModel:
    """A named set of independent links, each with its own rate.

    Parameters
    ----------
    name:
        Topology label (diagnostics only).
    links:
        Mapping of link id → :class:`LinkSpec`. Every route a
        :class:`~repro.netsim.events.TransmissionRecord` names must be a
        key here; the scheduler rejects unknown routes with a clear error.
    """

    def __init__(self, name: str, links: dict[str, LinkSpec]):
        if not links:
            raise ValueError(f"link model {name!r} needs at least one link")
        for link_id, spec in links.items():
            if not isinstance(spec, LinkSpec):
                raise TypeError(
                    f"link {link_id!r} must be a LinkSpec, got {type(spec).__name__}"
                )
        self.name = name
        self.links = dict(links)

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(self.links)

    def spec(self, route: str) -> LinkSpec:
        try:
            return self.links[route]
        except KeyError:
            known = ", ".join(self.links)
            raise ValueError(
                f"record routed to unknown link {route!r}; "
                f"model {self.name!r} has links: {known}"
            ) from None

    def transfer_seconds(self, route: str, payload_bytes: float) -> float:
        """Serialized time for one payload on one link."""
        return self.spec(route).transfer_seconds(payload_bytes)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LinkModel({self.name!r}, links={list(self.links)})"


def single_server_links(spec: LinkSpec) -> LinkModel:
    """The paper's shared bottleneck: one server NIC, all traffic."""
    return LinkModel("single", {"server": spec})


def sharded_links(spec: LinkSpec, num_shards: int) -> LinkModel:
    """One independent NIC per parameter-server shard."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return LinkModel(
        f"sharded(shards={num_shards})",
        {f"shard{index}": spec for index in range(num_shards)},
    )


def ring_links(spec: LinkSpec, num_workers: int) -> LinkModel:
    """The ring's hop links, collapsed to one lockstep channel.

    All ``num_workers`` links run concurrently and carry (within one
    chunk) the same volume per collective, so modelling them as a single
    channel whose records already hold per-link bytes yields the same
    completion times while keeping utilization reporting meaningful.
    """
    if num_workers < 2:
        raise ValueError(f"a ring needs >= 2 workers, got {num_workers}")
    return LinkModel(f"ring(n={num_workers})", {"ring": spec})


def hierarchical_links(
    intra: LinkSpec,
    cross: LinkSpec,
    *,
    racks: int,
    rack_size: int,
) -> LinkModel:
    """The two-tier fabric: per-rack ring channels feeding the core.

    Each rack's hop links collapse to one ``"rack<r>"`` channel (as in
    :func:`ring_links` — records carry per-link volume). The cross-rack
    tier is one ``"cross:rack<r>"`` uplink per rack to the upper
    parameter server, so an outage on one rack's uplink floors only that
    rack's route.
    """
    if racks < 1:
        raise ValueError(f"racks must be >= 1, got {racks}")
    if rack_size < 2:
        raise ValueError(f"a rack ring needs >= 2 workers, got {rack_size}")
    links = {f"rack{index}": intra for index in range(racks)}
    links.update({f"cross:rack{index}": cross for index in range(racks)})
    return LinkModel(f"hier(racks={racks}, rack={rack_size})", links)
