"""Exchange topologies: where gradients travel (paper §2, Figure 1).

A topology is a name in :class:`~repro.exchange.engine.EngineConfig`
(:data:`TOPOLOGIES`), and :func:`build_service` turns it into the
*parameter service* an :class:`~repro.exchange.engine.ExchangeEngine`
steps against:

* ``single`` — the paper's evaluated setting: one
  :class:`~repro.distributed.server.ParameterServer` holds the whole model.
* ``sharded`` — the multi-server half of Figure 1: the model is
  partitioned across ``num_shards`` independent servers
  (:class:`~repro.distributed.sharding.ShardedParameterService`), spreading
  the hot uplink.
* ``ring`` — :class:`RingExchangeService`: bandwidth-optimal ring
  all-reduce with per-hop compression, the serverless alternative the
  paper contrasts against. Workers hand over *raw* gradients; compression
  happens inside the collective, so per-worker push contexts do not exist.
* ``hier`` — :class:`HierarchicalExchangeService`, the first *composed*
  topology: workers are grouped into racks, each rack runs a ring
  all-reduce over its fast local links, and one 3LC-compressed aggregate
  per rack crosses the scarce uplink to a cross-rack parameter service
  (``hier_upper``: a single server or a sharded service, built by
  :func:`build_service` itself). This is the regime the paper targets —
  compression matters most where bandwidth is scarcest.

Every rule on a name and its shape knobs is ``EngineConfig``'s; nothing
here re-checks one. All services expose the
:class:`~repro.distributed.server.ParameterServer` surface the engine
relies on: ``step``/``exchange``, ``state_dict``, ``params``,
``bypassed``, ``schedule``, and ``global_step``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.distributed.allreduce import RingAllReduce
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.distributed.server import ParameterServer
from repro.distributed.sharding import ShardedParameterService
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = [
    "TOPOLOGIES",
    "build_service",
    "transmission_routes",
    "RingExchangeService",
    "RingOutcome",
    "HierarchicalExchangeService",
    "HierarchicalOutcome",
]

#: Registry of topology names accepted by the engine and the harness.
TOPOLOGIES = ("single", "sharded", "ring", "hier")


def build_service(config, parameters, optimizer_factory, schedule, scheme, fusion_plan):
    """The parameter service ``config.topology`` names.

    ``hier`` builds its upper tier through this same function: the
    ``hier_upper`` topology with one worker per rack (rack faults are the
    hierarchy's own, so the upper tier runs none).
    """
    threshold = config.small_tensor_threshold
    # Async/SSP services aggregate one push at a time.
    slots = config.make_sync().service_worker_slots(config.num_workers)
    if config.topology == "single":
        return ParameterServer(
            parameters,
            optimizer_factory(),
            schedule,
            scheme,
            slots,
            small_tensor_threshold=threshold,
            fusion_plan=fusion_plan,
        )
    if config.topology == "sharded":
        return ShardedParameterService(
            parameters,
            optimizer_factory,
            schedule,
            scheme,
            num_workers=slots,
            num_shards=config.num_shards,
            small_tensor_threshold=threshold,
            fusion_plan=fusion_plan,
        )
    if config.topology == "ring":
        return RingExchangeService(
            parameters,
            optimizer_factory(),
            schedule,
            scheme,
            num_workers=config.num_workers,
            small_tensor_threshold=threshold,
        )
    upper = replace(
        config, topology=config.hier_upper, num_workers=config.racks, fault=None
    )
    return HierarchicalExchangeService(
        build_service(
            upper, parameters, optimizer_factory, schedule, scheme, fusion_plan
        ),
        scheme,
        racks=config.racks,
        rack_size=config.rack_size,
        small_tensor_threshold=threshold,
        fusion_plan=fusion_plan,
    )


def transmission_routes(service) -> dict[str, str]:
    """Map each parameter tensor to the link its messages traverse.

    This is the topology half of the exchange plan the network simulator
    (:mod:`repro.netsim`) replays: the engine stamps every recorded
    transmission with its route, and the simulator serializes transfers
    per route. A single server is one ``"server"`` NIC, a sharded service
    one ``shard<k>`` NIC per owning shard, and the ring its lockstep hop
    links. Under ``hier`` these name the cross-rack tier: a sharded upper
    tier's NICs (``cross:shard<k>``), or the ``"cross"`` marker for a
    single upper server, which the engine qualifies per rack
    (``cross:rack<r>``) — each rack reaches the core over its own uplink.
    Intra-rack records are stamped ``rack<r>`` by the engine.
    """
    if isinstance(service, HierarchicalExchangeService):
        return {
            name: "cross" if route == "server" else f"cross:{route}"
            for name, route in transmission_routes(service.upper).items()
        }
    if isinstance(service, ShardedParameterService):
        return {name: f"shard{service.shard_of(name)}" for name in service.params}
    route = "ring" if isinstance(service, RingExchangeService) else "server"
    return dict.fromkeys(service.params, route)


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


@dataclass
class RingOutcome:
    """Result of one ring exchange round."""

    deltas: dict[str, np.ndarray]
    wire_bytes: int
    codec_seconds: float
    elements: int
    #: Per-tensor bytes the *busiest single link* carried — the honest
    #: quantity for ring step time (every link works in parallel; the
    #: server-NIC model would wrongly charge the all-links sum).
    per_tensor_link_bytes: dict[str, int]
    #: Per-tensor transmitted element counts (2 (N-1)/N of the size).
    per_tensor_elements: dict[str, int]


class RingExchangeService:
    """Serverless exchange: gradients are averaged by one ring all-reduce
    over all tensors (hops in lockstep, persistent per-hop compression
    contexts), and the global update is applied once to a canonical model
    every replica mirrors.

    Small tensors travel as raw float32 chunks (the §5.1 bypass maps to an
    uncompressed ring); large tensors compress per hop, so error feedback
    corrects each *link* across training steps.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer,
        schedule: Schedule,
        scheme: Compressor,
        *,
        num_workers: int,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
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
            if param.size < small_tensor_threshold
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

    def exchange(self, grad_dicts: list[dict[str, np.ndarray]]) -> RingOutcome:
        """Ring-reduce every tensor, update the canonical model, and return
        the model deltas each replica applies locally (no pull traffic —
        after the all-gather phase every node already holds the result)."""
        reduced, link_bytes, wire, codec_seconds = _reduce(self.ring, grad_dicts)

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
        sent = self.ring.sent_elements
        return RingOutcome(
            deltas, wire, codec_seconds, sum(sent.values()), link_bytes, sent
        )


@dataclass
class HierarchicalOutcome:
    """Result of one hierarchical exchange (a full BSP step, or one
    rack's asynchronous update).

    Intra-rack quantities follow the ring conventions: ``intra_wire_bytes``
    is the all-links sum while ``per_rack_link_bytes`` holds each rack's
    busiest-single-link bytes per tensor (the honest per-channel volume
    the simulator schedules). Cross-rack traffic is point-to-point —
    compressed rack aggregates up, shared compressed deltas down — and
    comes back as the messages themselves: the engine posts each one to
    its wire ledger, so no byte totals are kept here.
    """

    #: Model deltas every worker applies (``None`` for async rack
    #: updates — the engine compresses per-rack pull increments itself).
    deltas: dict[str, np.ndarray] | None
    #: Which racks participated (all of them for a BSP step).
    rack_indices: tuple[int, ...]
    #: Per participating rack: tensor -> busiest-hop-link bytes.
    per_rack_link_bytes: tuple[dict[str, int], ...]
    #: Per-tensor transmitted elements on one rack ring (2 (W-1)/W of it).
    per_tensor_elements: dict[str, int]
    intra_wire_bytes: int
    intra_elements: int
    #: Total intra-rack wire frames (all hop links of all racks).
    ring_frames: int
    #: Per participating rack: ring-reduce codec seconds.
    rack_codec_seconds: tuple[float, ...]
    #: Per participating rack: the uplink stream's frames by label.
    cross_push_results: tuple[dict[str, WireFrame | None], ...]
    #: Per participating rack: uplink compression seconds.
    cross_compress_seconds: tuple[float, ...]
    #: Shared cross-rack pull frames (BSP only; empty for rack updates).
    pull_messages: dict[str, WireFrame | None] = field(default_factory=dict)
    server_decompress_seconds: float = 0.0
    server_compress_seconds: float = 0.0
    pull_decompress_seconds: float = 0.0
    #: Rack-averaged gradients of racks whose uplink was down this step
    #: (fault injection): reduced on the healthy rack fabric but excluded
    #: from the global exchange. The engine applies them as degraded
    #: local-only steps and banks them for the rejoin catch-up push.
    down_rack_grads: dict[int, dict[str, np.ndarray]] = field(
        default_factory=dict
    )

    @property
    def push_compress_seconds(self) -> float:
        """Slowest rack's serial (ring codec + uplink compress) pipeline —
        the critical-path push-compression convention."""
        return max(
            codec + compress
            for codec, compress in zip(
                self.rack_codec_seconds, self.cross_compress_seconds
            )
        )


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
       parameter service — a :class:`~repro.distributed.server.ParameterServer`
       or a :class:`~repro.distributed.sharding.ShardedParameterService`
       reused unchanged — which aggregates over racks, updates the global
       model, and compresses shared model deltas that flow back down one
       copy per rack and are then re-broadcast over the rack rings.

    Per-rack ring contexts are independent objects but share stream keys
    across racks (the underlying :class:`RingAllReduce` keys by
    ``(phase, sender, chunk)``); stochastic schemes therefore draw the
    same per-hop streams in every rack, which is deterministic.
    """

    def __init__(
        self,
        upper,
        scheme: Compressor,
        *,
        racks: int,
        rack_size: int,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
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
                threshold=small_tensor_threshold,
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

    def _compress_uplink(
        self, rack: int, rack_grads: dict[str, np.ndarray]
    ) -> tuple[dict[str, WireFrame | None], float]:
        """Phase 2 (up) for one rack: compress the aggregate for the core."""
        t0 = time.perf_counter()
        messages = self.uplinks[rack].compress(rack_grads)
        return messages, time.perf_counter() - t0

    def _ring_frames(self, racks: int) -> int:
        return len(self.params) * self.rack_rings[0].frames * racks

    def exchange(
        self,
        grad_dicts: list[dict[str, np.ndarray]],
        *,
        down_racks: frozenset[int] = frozenset(),
        catch_up: dict[int, dict[str, np.ndarray]] | None = None,
    ) -> HierarchicalOutcome:
        """One full BSP step: every rack reduces, then the core aggregates.

        ``down_racks`` (fault injection) are racks whose cross uplink is
        out this step: their members still ring-reduce over the healthy
        rack fabric, but the aggregate never reaches the core — it comes
        back in :attr:`HierarchicalOutcome.down_rack_grads` for the engine
        to apply locally. ``catch_up`` maps a rejoining rack to its banked
        outage-window gradient sum, folded into that rack's uplink push
        (through the persistent uplink error-feedback context) this step.
        """
        expected = self.racks * self.rack_size
        if len(grad_dicts) != expected:
            raise ValueError(
                f"expected {expected} gradient sets "
                f"({self.racks} racks x {self.rack_size}), got {len(grad_dicts)}"
            )
        for rack in down_racks:
            if not (0 <= rack < self.racks):
                raise ValueError(f"down rack {rack} out of range")
        if len(down_racks) >= self.racks:
            raise RuntimeError(
                "every rack is cut off from the core; no exchange possible"
            )
        per_tensor_elements = self.rack_rings[0].sent_elements
        rack_grads: list[dict[str, np.ndarray]] = []
        per_rack_link_bytes: list[dict[str, int]] = []
        rack_codec: list[float] = []
        intra_wire = 0
        for rack in range(self.racks):
            group = grad_dicts[rack * self.rack_size : (rack + 1) * self.rack_size]
            reduced, link_bytes, wire, codec = _reduce(self.rack_rings[rack], group)
            rack_grads.append(reduced)
            per_rack_link_bytes.append(link_bytes)
            rack_codec.append(codec)
            intra_wire += wire
        intra_elements = self.racks * sum(per_tensor_elements.values())

        if catch_up:
            # Late rejoin push: fold the banked outage-window gradients
            # into the rejoining rack's aggregate before it crosses the
            # uplink — compression errors land in the uplink's persistent
            # error-feedback residual like any other step.
            for rack, backlog in catch_up.items():
                if rack in down_racks:
                    raise ValueError(
                        f"rack {rack} cannot catch up while its uplink is down"
                    )
                grads = rack_grads[rack]
                for name, banked in backlog.items():
                    grads[name] = grads[name] + banked

        # Positions in every per-rack tuple follow ``rack_indices``: up
        # racks first (the only ones with cross-push entries), then the
        # cut-off racks. With no faults this is simply 0..racks-1.
        up_racks = [r for r in range(self.racks) if r not in down_racks]
        order = up_racks + sorted(down_racks)
        cross_results: list[dict[str, WireFrame | None]] = []
        cross_compress: list[float] = []
        for rack in up_racks:
            messages, seconds = self._compress_uplink(rack, rack_grads[rack])
            cross_results.append(messages)
            cross_compress.append(seconds)
        # Down racks pay no uplink compression; pad so the critical-path
        # zip in ``push_compress_seconds`` stays position-aligned.
        cross_compress.extend(0.0 for _ in down_racks)

        pull_batch = self.upper.step(cross_results, divisor=len(up_racks))

        t0 = time.perf_counter()
        deltas = self.upper.decompress_pulls(pull_batch.messages)
        pull_decompress = time.perf_counter() - t0

        return HierarchicalOutcome(
            deltas=deltas,
            rack_indices=tuple(order),
            per_rack_link_bytes=tuple(per_rack_link_bytes[r] for r in order),
            per_tensor_elements=per_tensor_elements,
            intra_wire_bytes=intra_wire,
            intra_elements=intra_elements,
            ring_frames=self._ring_frames(self.racks),
            rack_codec_seconds=tuple(rack_codec[r] for r in order),
            cross_push_results=tuple(cross_results),
            cross_compress_seconds=tuple(cross_compress),
            pull_messages=pull_batch.messages,
            server_decompress_seconds=pull_batch.decompress_seconds,
            server_compress_seconds=pull_batch.compress_seconds,
            pull_decompress_seconds=pull_decompress,
            down_rack_grads={r: rack_grads[r] for r in sorted(down_racks)},
        )

    def rack_exchange(
        self, rack: int, grad_dicts: list[dict[str, np.ndarray]]
    ) -> HierarchicalOutcome:
        """One rack's asynchronous update: the rack reduces internally and
        pushes its aggregate alone (``divisor=1``); the engine handles the
        per-rack pull stream through its own error-feedback contexts."""
        if not (0 <= rack < self.racks):
            raise ValueError(f"rack must be in [0, {self.racks}), got {rack}")
        if len(grad_dicts) != self.rack_size:
            raise ValueError(
                f"expected {self.rack_size} gradient sets for one rack, "
                f"got {len(grad_dicts)}"
            )
        per_tensor_elements = self.rack_rings[rack].sent_elements
        reduced, link_bytes, wire, codec = _reduce(self.rack_rings[rack], grad_dicts)
        messages, compress_seconds = self._compress_uplink(rack, reduced)
        pull_batch = self.upper.step([messages], divisor=1)
        return HierarchicalOutcome(
            deltas=None,
            rack_indices=(rack,),
            per_rack_link_bytes=(link_bytes,),
            per_tensor_elements=per_tensor_elements,
            intra_wire_bytes=wire,
            intra_elements=sum(per_tensor_elements.values()),
            ring_frames=self._ring_frames(1),
            rack_codec_seconds=(codec,),
            cross_push_results=(messages,),
            cross_compress_seconds=(compress_seconds,),
            # Async convention (matching the flat parameter server): the
            # discarded shared-pull compression stays uncharged.
            server_decompress_seconds=pull_batch.decompress_seconds,
            server_compress_seconds=0.0,
        )
