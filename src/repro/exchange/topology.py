"""Exchange topologies: where gradients travel (paper §2, Figure 1).

A topology is a name in :class:`~repro.exchange.engine.EngineConfig`
(:data:`TOPOLOGIES`), and :func:`build_service` turns it into the
*parameter service* an :class:`~repro.exchange.engine.ExchangeEngine`
steps against:

* ``single`` — the paper's evaluated setting: one
  :class:`~repro.distributed.server.ParameterServer` holds the whole model.
* ``sharded`` — the multi-server half of Figure 1: the model is
  partitioned across ``num_shards`` server NICs, spreading the hot uplink.
  A shard is a route, not a server:
  :class:`~repro.distributed.sharding.ShardedParameterService` is one
  :class:`~repro.distributed.server.ParameterServer` plus an owner map,
  and :func:`transmission_routes` puts each frame on ``shard<owner>``.
* ``ring`` — :class:`RingExchangeService`: bandwidth-optimal ring
  all-reduce with per-hop compression, the serverless alternative the
  paper contrasts against. Workers hand over *raw* gradients; compression
  happens inside the collective, so per-worker push contexts do not exist.
* ``hier`` — :class:`HierarchicalExchangeService`, the first *composed*
  topology: workers are grouped into racks, each rack runs a ring
  all-reduce over its fast local links, and one 3LC-compressed aggregate
  per rack crosses the scarce uplink to one cross-rack
  :class:`~repro.distributed.server.ParameterServer`. This is the regime
  the paper targets — compression matters most where bandwidth is
  scarcest.

Every rule on a name and its shape knobs is ``EngineConfig``'s; nothing
here re-checks one. All services expose the
:class:`~repro.distributed.server.ParameterServer` surface the engine
relies on: ``state_dict``, ``params``, ``bypassed``, ``schedule``,
``global_step``, and one BSP step, ``exchange(batches, accepted)``, which
answers an :class:`~repro.distributed.server.ExchangeOutcome`. A parameter
service aggregates the ``accepted`` pushes in sender-id order (arrival
decides only who is accepted); the ring and the rack rings reduce every
worker's gradients in rank order. Async/SSP updates call a parameter
service's ``step`` directly, or :meth:`HierarchicalExchangeService.rack_exchange`,
one at a time: their schedule's order is the model under test.

This module also names everything on the wire: :func:`transmission_routes`
maps each tensor of a flat service to its route, and a :class:`Wire` posts
every exchange outcome (frames, collectives, uplink crossings, rack
broadcasts, resyncs) to the engine's ledger, naming each rack's cross-tier
uplink and stamping intra-rack records with their rack. No other module builds a record name.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.distributed.allreduce import RingAllReduce
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.distributed.server import ExchangeOutcome, ParameterServer
from repro.distributed.sharding import ShardedParameterService
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = [
    "TOPOLOGIES",
    "build_service",
    "transmission_routes",
    "Wire",
    "RingExchangeService",
    "HierarchicalExchangeService",
]

#: Registry of topology names accepted by the engine and the harness.
TOPOLOGIES = ("single", "sharded", "ring", "hier")


def build_service(config, parameters, optimizer, schedule, scheme, fusion_plan):
    """The parameter service ``config.topology`` names. ``hier``'s upper
    tier is the ``single`` server, taking one push per rack."""
    if config.topology == "ring":
        return RingExchangeService(
            parameters, optimizer, schedule, scheme, num_workers=config.num_workers
        )
    hier = config.topology == "hier"
    # Async/SSP services aggregate one push at a time.
    slots = 1
    if config.synchronous:
        slots = config.racks if hier else config.num_workers
    if config.topology == "sharded":
        return ShardedParameterService(
            parameters,
            optimizer,
            schedule,
            scheme,
            num_workers=slots,
            num_shards=config.num_shards,
            fusion_plan=fusion_plan,
        )
    server = ParameterServer(
        parameters, optimizer, schedule, scheme, slots, fusion_plan=fusion_plan
    )
    if not hier:
        return server
    return HierarchicalExchangeService(
        server,
        scheme,
        racks=config.racks,
        rack_size=config.rack_size,
        fusion_plan=fusion_plan,
    )


def transmission_routes(service) -> dict[str, str]:
    """Map each parameter tensor to the link its messages traverse.

    This is the topology half of the exchange plan the network simulator
    (:mod:`repro.netsim`) replays: the engine stamps every recorded
    transmission with its route, and the simulator serializes transfers
    per route. A single server is one ``"server"`` NIC, a sharded service
    one ``shard<k>`` NIC per owning shard, and the ring its lockstep hop
    links. Under ``hier`` no tensor has a route of its own: each rack
    reaches the core over its own uplink (``cross:rack<r>``) and circulates
    its ring (``rack<r>``), and the :class:`Wire` names both per transfer.
    """
    if isinstance(service, HierarchicalExchangeService):
        return {}
    if isinstance(service, ShardedParameterService):
        return {name: f"shard{service.shard_of(name)}" for name in service.params}
    route = "ring" if isinstance(service, RingExchangeService) else "server"
    return dict.fromkeys(service.params, route)


def _frames(messages):
    """``(label, params, message)`` for each transmitted frame, in wire
    order. A ``None`` frame was deferred by the scheme and put nothing on
    the wire."""
    for label, frame in messages.items():
        if frame is not None:
            yield label, frame.names, frame.message


class Wire:
    """Posts one service's exchange outcomes to an engine quantum's ledger.

    Each method counts what went on the wire on the ledger's
    ``StepTraffic`` and records it (when the ledger records) under the
    names and routes the simulators replay. Collectives keep the ring
    convention: the meter takes their all-links totals, the records one
    link's bytes and frames (the links run in parallel).
    """

    def __init__(self, service):
        self.service = service
        self.routes = transmission_routes(service)
        hier = isinstance(service, HierarchicalExchangeService)
        self.rack_size = service.rack_size if hier else 0

    def unit_name(self, unit: int) -> str:
        """An async/SSP scheduling unit's name: its rack's ring route
        under ``hier``, ``worker<w>`` otherwise."""
        return f"rack{unit}" if self.rack_size else f"worker{unit}"

    def post(self, ledger, phase: str, messages, *, bypassed=None, **routing) -> None:
        """Post parameter-service frames on their tensors' routes.

        ``bypassed`` feeds Figure 9's series: given the service's bypass
        set, frames of the other tensors — the ones that went through the
        lossy codec — are also counted apart.
        """
        for label, params, message in _frames(messages):
            main = bypassed is not None and params[0] not in bypassed
            route = self.routes[params[0]]
            ledger.post(phase, label, params, message, route, main=main, **routing)

    def post_exchange(self, ledger, outcome: ExchangeOutcome) -> None:
        """Post one exchange outcome: its ring collectives, its pushes, then
        its shared pull.

        A parameter service's pushes and shared pull go on their tensors'
        routes; a shared pull is compressed once but physically sent to
        every pushing worker, one frame (and one payload copy) each. Under
        ``hier`` each up rack's compressed aggregate crosses its uplink,
        depending on the rack collectives of the tensors it carries (a
        fused frame leaves only once every member's collective landed),
        and the shared pull flows down to the up racks.
        """
        if outcome.link_bytes:
            self._post_rings(ledger, outcome)
        rack_size = self.rack_size
        if not rack_size:
            bypassed = self.service.bypassed
            for sender, messages in outcome.pushes.items():
                self.post(ledger, "push", messages, bypassed=bypassed, worker=sender)
            if outcome.pulls:
                fanout = len(outcome.pushes)
                self.post(
                    ledger, "pull", outcome.pulls, bypassed=bypassed,
                    copies=fanout, frames=fanout,
                )
            return
        traffic = ledger.traffic
        for rack, messages in outcome.pushes.items():
            for label, params, message in _frames(messages):
                traffic.cross_rack_bytes += message.wire_size
                ledger.post(
                    "push", f"{label}@up{rack}", params, message, f"cross:rack{rack}",
                    worker=rack * rack_size,
                    depends_on=tuple(f"{name}@rack{rack}" for name in params),
                )
        if outcome.pulls:
            self.post_hier_pull(ledger, outcome.pulls, tuple(outcome.pushes))

    def _post_rings(self, ledger, outcome: ExchangeOutcome) -> None:
        """Post ring all-reduces: one collective record per tensor per ring.

        Bytes are what the busiest hop link carries and frames are one
        chunk message per hop (all links run their hops in parallel); the
        meter counts every (node, hop) chunk as one framed message. A rack
        ring's records are stamped with their rack.
        """
        hier = bool(self.rack_size)
        # Every rack ring has one shape.
        ring = self.service.rack_rings[0] if hier else self.service.ring
        rings = len(outcome.link_bytes)
        traffic = ledger.traffic
        traffic.push_bytes += outcome.ring_bytes
        traffic.push_elements += rings * sum(ring.sent_elements.values())
        traffic.push_messages += len(self.service.params) * ring.frames * rings
        if hier:
            traffic.intra_rack_bytes += outcome.ring_bytes
        for rack, link_bytes in outcome.link_bytes.items():
            suffix, worker = ("", None)
            if hier:
                suffix, worker = f"@rack{rack}", rack * self.rack_size
            for name, elements in ring.sent_elements.items():
                ledger.emit(
                    name + suffix, (name,), link_bytes.get(name, 0), elements,
                    f"rack{rack}" if hier else self.routes[name], "collective",
                    worker=worker, frames=ring.link_frames,
                )

    def post_hier_pull(self, ledger, messages, racks, *, unit=None) -> None:
        """Post delta frames flowing down to ``racks``.

        Each frame crosses the core tier once per rack, then circulates
        that rack's ring (``rack_size - 1`` more copies) as a broadcast
        depending on the crossing. ``unit`` is the rack pulling its own
        individual (async/SSP) stream. A BSP step's shared pull
        (``unit=None``) reaches every up rack, each pulling its copy down
        its own uplink.
        """
        rack_size = self.rack_size
        traffic = ledger.traffic
        for label, params, message in _frames(messages):
            ledger.count("pull", message)
            traffic.cross_rack_bytes += message.wire_size * len(racks)
            traffic.intra_rack_bytes += (
                message.wire_size * len(racks) * (rack_size - 1)
            )
            wire = (message.wire_size, message.element_count)
            for rack in racks:
                ledger.emit(
                    f"{label}@down{rack}", params, *wire, f"cross:rack{rack}", "pull",
                    worker=unit,
                )
            for rack in racks:
                ledger.emit(
                    f"{label}@bcast{rack}", params, *wire, f"rack{rack}", "pull",
                    worker=unit,
                    frames=rack_size - 1,
                    depends_on=(f"{label}@down{rack}",),
                )

    def post_resync(self, ledger, *, worker=None, rack=None) -> list[str]:
        """Post one full float32 model resync; return the routes it took.

        Raw records on the step's pull phase, one per route: a rejoining
        ``worker`` pulls over the service's routes, a rejoining ``rack``
        over its own uplink, then re-broadcasts over its ring.
        """
        traffic = ledger.traffic
        model_bytes = 4 * traffic.model_elements
        owner = f"w{worker}" if rack is None else f"rack{rack}"
        elements: dict[str, int] = {}
        for name, param in self.service.params.items():
            route = self.routes[name] if rack is None else f"cross:rack{rack}"
            elements[route] = elements.get(route, 0) + param.size
        routes = sorted(elements)
        for route in routes:
            ledger.emit(
                f"resync:{owner}:{route}", (), 4 * elements[route],
                elements[route], route, "pull", worker=worker,
            )
        if rack is None:
            traffic.resync_bytes += model_bytes
            return routes
        traffic.resync_bytes += model_bytes * self.rack_size
        traffic.cross_rack_bytes += model_bytes
        traffic.intra_rack_bytes += model_bytes * (self.rack_size - 1)
        ledger.emit(
            f"resync:rack{rack}:bcast", (), model_bytes, traffic.model_elements,
            f"rack{rack}", "pull", frames=self.rack_size - 1,
            depends_on=tuple(f"resync:rack{rack}:{route}" for route in routes),
        )
        return routes


def _reduce(ring: RingAllReduce, grad_dicts: list[dict[str, np.ndarray]]):
    """One ring reduction's bookkeeping, shared by the flat ring and every
    rack ring: the averaged gradients, each tensor's busiest-link bytes,
    the all-links wire bytes, and the codec seconds."""
    t0 = time.perf_counter()
    results = ring.reduce(grad_dicts, average=True)
    reduced = {name: result.outputs[0] for name, result in results.items()}
    link_bytes = {name: result.max_link_bytes for name, result in results.items()}
    wire = sum(result.wire_bytes for result in results.values())
    return reduced, link_bytes, wire, time.perf_counter() - t0


class RingExchangeService:
    """Serverless exchange: gradients are averaged by one ring all-reduce
    over all tensors (hops in lockstep, persistent per-hop compression
    contexts), and the global update is applied once to a canonical model
    every replica mirrors.

    Small tensors travel as raw float32 chunks (the §5.1 bypass maps to an
    uncompressed ring); large tensors compress per hop, so error feedback
    corrects each *link* across training steps.
    """

    #: One stage carries all of a step's codec seconds (a modeled clock
    #: prices the hop decodes apart).
    STAGES = dict.fromkeys(ParameterServer.STAGES, ("ring", "allreduce+codec"))

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer,
        schedule: Schedule,
        scheme: Compressor,
        *,
        num_workers: int,
    ):
        self.optimizer = optimizer
        self.schedule = schedule
        self.params: dict[str, Parameter] = {
            p.name: Parameter(p.name, p.data.copy(), weight_decay=p.weight_decay)
            for p in parameters
        }
        self.bypassed: set[str] = {
            name
            for name, param in self.params.items()
            if param.size < SMALL_TENSOR_THRESHOLD
        }
        self.ring = RingAllReduce(
            num_workers,
            {name: param.shape for name, param in self.params.items()},
            scheme,
            bypass=self.bypassed,
        )
        self.global_step = 0

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def exchange(self, batches, accepted) -> ExchangeOutcome:
        """Ring-reduce every worker's gradients (``batches`` by worker, in
        rank order; the barrier's ``accepted`` order is not the ring's),
        update the canonical model, and return the model deltas each
        replica applies locally (no pull traffic — after the all-gather
        phase every node already holds the result)."""
        reduced, link_bytes, wire, codec_seconds = _reduce(
            self.ring, [batches[worker].grads for worker in sorted(batches)]
        )

        lr = self.schedule(self.global_step)
        previous = {name: p.data.copy() for name, p in self.params.items()}
        updated = list(self.params.values())
        for param in updated:
            param.grad = reduced[param.name]
        self.optimizer.step(updated, lr)
        for param in updated:
            param.grad = None
        self.global_step += 1

        deltas = {
            name: param.data - previous[name] for name, param in self.params.items()
        }
        return ExchangeOutcome(
            deltas,
            dict(push_compress_seconds=codec_seconds),
            link_bytes={0: link_bytes},
            ring_bytes=wire,
        )


class _Uplink(NamedTuple):
    """One rack's compressed aggregate, as the upper tier takes a push."""

    messages: dict[str, WireFrame | None]
    compress_seconds: float


class HierarchicalExchangeService:
    """Two-tier exchange: rack-local rings feeding a cross-rack service.

    Workers are grouped into ``racks`` contiguous racks of ``rack_size``
    (worker ``w`` lives in rack ``w // rack_size``). One exchange runs in
    two dependent phases:

    1. **intra-rack** — every rack ring-all-reduces its members' raw
       gradients over the fast local links (per-hop compression contexts,
       exactly as :class:`RingExchangeService`), producing one averaged
       gradient per rack;
    2. **cross-rack** — each rack compresses its aggregate through a
       persistent per-rack uplink context (3LC error feedback corrects
       the scarce link across steps) and pushes it to the ``upper``
       :class:`~repro.distributed.server.ParameterServer`, reused
       unchanged, which aggregates over racks,
       updates the global model, and compresses shared model deltas that
       flow back down one copy per rack and are then re-broadcast over the
       rack rings.

    Per-rack ring contexts are independent objects but share stream keys
    across racks (the underlying :class:`RingAllReduce` keys by
    ``(phase, sender, chunk)``); stochastic schemes therefore draw the
    same per-hop streams in every rack, which is deterministic.
    """

    #: The slowest rack's serial ring + uplink pipeline is the push side.
    STAGES = {
        **ParameterServer.STAGES,
        "push_compress_seconds": ("racks", "rack-pipeline"),
    }

    def __init__(
        self,
        upper,
        scheme: Compressor,
        *,
        racks: int,
        rack_size: int,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        self.upper = upper
        self.racks = racks
        self.rack_size = rack_size
        self.schedule = upper.schedule
        self.params = upper.params
        bypassed = self.bypassed
        shapes = {name: param.shape for name, param in self.params.items()}
        self.rack_rings = [
            RingAllReduce(rack_size, shapes, scheme, bypass=bypassed)
            for _ in range(racks)
        ]
        # Persistent per-rack uplink streams: error feedback corrects the
        # scarce cross-rack link across training steps (paper Figure 2a,
        # applied at rack granularity), per tensor or — for tensors the
        # plan owns — per bucket per rack.
        self.uplinks = [
            WireStream(
                scheme,
                shapes,
                threshold=SMALL_TENSOR_THRESHOLD,
                plan=fusion_plan,
                kind="hpush",
                owner=(rack,),
            )
            for rack in range(racks)
        ]

    # -- ParameterServer surface -------------------------------------------

    @property
    def bypassed(self) -> set[str]:
        return self.upper.bypassed

    @property
    def global_step(self) -> int:
        return self.upper.global_step

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.upper.state_dict()

    # -- the two-phase exchange --------------------------------------------

    def _is_rack(self, rack) -> bool:
        """Whether ``rack`` names a rack: an integer (not a ``bool``) in
        ``[0, racks)``."""
        return (
            isinstance(rack, numbers.Integral)
            and not isinstance(rack, bool)
            and 0 <= rack < self.racks
        )

    def _compress_uplink(self, rack: int, rack_grads: dict[str, np.ndarray]) -> _Uplink:
        """Phase 2 (up) for one rack: compress the aggregate for the core."""
        t0 = time.perf_counter()
        messages = self.uplinks[rack].compress(rack_grads)
        return _Uplink(messages, time.perf_counter() - t0)

    def exchange(
        self,
        batches,
        accepted,
        *,
        down_racks: frozenset[int] = frozenset(),
        catch_up: dict[int, dict[str, np.ndarray]] | None = None,
    ) -> ExchangeOutcome:
        """One full BSP step: every rack reduces its members' gradients
        (``batches`` by worker, in rank order; the barrier's ``accepted``
        order is not the rings'), then the upper tier's own ``exchange``
        aggregates the up racks' uplink pushes.

        ``down_racks`` (fault injection) are racks whose cross uplink is
        out this step: their members still ring-reduce over the healthy
        rack fabric, but the aggregate never reaches the core — it comes
        back in :attr:`~repro.distributed.server.ExchangeOutcome.down_rack_grads`
        for the engine to apply locally. ``catch_up`` maps a rejoining rack
        to its banked outage-window gradient sum, folded into that rack's
        uplink push (through the persistent uplink error-feedback context)
        this step.
        """
        expected = self.racks * self.rack_size
        if len(batches) != expected:
            raise ValueError(
                f"expected {expected} gradient sets "
                f"({self.racks} racks x {self.rack_size}), got {len(batches)}"
            )
        for rack in down_racks:
            if not self._is_rack(rack):
                raise ValueError(
                    f"down rack {rack!r} out of range: down_racks must hold "
                    f"racks in [0, {self.racks})"
                )
        catch_up = catch_up or {}
        for rack in catch_up:
            if not self._is_rack(rack):
                raise ValueError(
                    f"catch_up rack {rack!r} out of range: catch_up must be "
                    f"keyed by racks in [0, {self.racks})"
                )
            if rack in down_racks:
                raise ValueError(
                    f"rack {rack} cannot catch up while its uplink is down"
                )
        if len(down_racks) >= self.racks:
            raise RuntimeError(
                "every rack is cut off from the core; no exchange possible"
            )
        grads = [batches[worker].grads for worker in sorted(batches)]
        size = self.rack_size
        rack_grads: list[dict[str, np.ndarray]] = []
        link_bytes: list[dict[str, int]] = []
        pipeline: list[float] = []
        ring_bytes = 0
        for rack, ring in enumerate(self.rack_rings):
            reduced, busiest, wire, seconds = _reduce(
                ring, grads[rack * size : (rack + 1) * size]
            )
            rack_grads.append(reduced)
            link_bytes.append(busiest)
            pipeline.append(seconds)
            ring_bytes += wire

        # Late rejoin push: fold the banked outage-window gradients into the
        # rejoining rack's aggregate before it crosses the uplink —
        # compression errors land in the uplink's persistent error-feedback
        # residual like any other step.
        for rack, backlog in catch_up.items():
            reduced = rack_grads[rack]
            for name, banked in backlog.items():
                reduced[name] = reduced[name] + banked

        # Up racks push (and list first); cut-off racks pay no uplink
        # compression. With no faults this is simply 0..racks-1.
        up_racks = [r for r in range(self.racks) if r not in down_racks]
        uplinks = {}
        for rack in up_racks:
            uplinks[rack] = self._compress_uplink(rack, rack_grads[rack])
            pipeline[rack] += uplinks[rack].compress_seconds
        outcome = self.upper.exchange(uplinks, up_racks)
        order = up_racks + sorted(down_racks)
        return replace(
            outcome,
            codec={**outcome.codec, "push_compress_seconds": max(pipeline)},
            link_bytes={rack: link_bytes[rack] for rack in order},
            ring_bytes=ring_bytes,
            down_rack_grads={rack: rack_grads[rack] for rack in sorted(down_racks)},
        )

    def rack_exchange(self, rack: int, batches) -> ExchangeOutcome:
        """One rack's asynchronous update: the rack reduces its members'
        gradients (``batches`` in rank order) and pushes its aggregate alone
        (``divisor=1``); the engine handles the per-rack pull stream through
        its own error-feedback contexts."""
        if not self._is_rack(rack):
            raise ValueError(f"rack must be in [0, {self.racks}), got {rack!r}")
        if len(batches) != self.rack_size:
            raise ValueError(
                f"expected {self.rack_size} gradient sets for one rack, "
                f"got {len(batches)}"
            )
        reduced, link_bytes, wire, seconds = _reduce(
            self.rack_rings[rack], [batch.grads for batch in batches]
        )
        uplink = self._compress_uplink(rack, reduced)
        pull = self.upper.step([uplink.messages], divisor=1)
        # Async convention (matching the flat parameter server): the
        # discarded shared-pull compression stays uncharged.
        return ExchangeOutcome(
            None,
            dict(
                push_compress_seconds=seconds + uplink.compress_seconds,
                server_decompress_seconds=pull.decompress_seconds,
            ),
            pushes={rack: uplink.messages},
            link_bytes={rack: link_bytes},
            ring_bytes=wire,
        )
