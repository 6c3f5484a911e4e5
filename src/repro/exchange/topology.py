"""Exchange topologies: where gradients travel (paper §2, Figure 1).

An :class:`ExchangeTopology` builds the *parameter service* an
:class:`~repro.exchange.engine.ExchangeEngine` steps against. Three
topologies ship:

* :class:`SingleServerTopology` — the paper's evaluated setting: one
  :class:`~repro.distributed.server.ParameterServer` holds the whole model.
* :class:`ShardedTopology` — the multi-server half of Figure 1: the model
  is partitioned across ``num_shards`` independent servers
  (:class:`~repro.distributed.sharding.ShardedParameterService`), spreading
  the hot uplink.
* :class:`RingTopology` — bandwidth-optimal ring all-reduce with per-hop
  compression, the serverless alternative the paper contrasts against.
  Workers hand over *raw* gradients (``wants_raw_gradients``); compression
  happens inside the collective, so per-worker push contexts do not exist.
* :class:`HierarchicalTopology` — the first *composed* topology: workers
  are grouped into racks, each rack runs a ring all-reduce over its fast
  local links, and one 3LC-compressed aggregate per rack crosses the
  scarce uplink to a cross-rack parameter service (a single server or a
  sharded service, reused as the upper tier). This is the regime the
  paper targets — compression matters most where bandwidth is scarcest.

All services expose the :class:`~repro.distributed.server.ParameterServer`
surface the engine relies on: ``step``/``exchange``, ``state_dict``,
``params``, ``bypassed``, ``schedule``, and ``global_step``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import Compressor
from repro.compression.fusion import FusionPlan, WireFrame, WireStream
from repro.distributed.allreduce import RingAllReduce
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.distributed.server import ParameterServer
from repro.distributed.sharding import ShardedParameterService, shard_owner_map
from repro.exchange.wireplan import fusion_incompatibility
from repro.nn.parameter import Parameter
from repro.nn.schedule import Schedule

__all__ = [
    "ExchangeTopology",
    "SingleServerTopology",
    "ShardedTopology",
    "RingTopology",
    "RingExchangeService",
    "RingOutcome",
    "HierarchicalTopology",
    "HierarchicalExchangeService",
    "HierarchicalOutcome",
    "make_topology",
    "TOPOLOGIES",
]


class ExchangeTopology(abc.ABC):
    """Factory for the parameter service behind one gradient-exchange plan."""

    name: str = "abstract"
    #: True when workers should skip push compression and hand the engine
    #: raw gradients (collectives compress per hop, not per worker).
    wants_raw_gradients: bool = False
    #: True when the topology can exchange fused small-tensor buckets.
    supports_fusion: bool = False
    #: True when the topology can run under async/SSP scheduling. A flat
    #: ring cannot (the collective is globally synchronous); the
    #: hierarchical topology can — racks are synchronous internally but
    #: exchange with the cross-rack service asynchronously.
    supports_event_modes: bool = True

    @abc.abstractmethod
    def build_service(
        self,
        parameters: list[Parameter],
        optimizer_factory,
        schedule: Schedule,
        scheme: Compressor,
        *,
        num_workers: int,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        """Construct the service the engine will step against."""

    def fusion_partition(self, sizes: dict[str, int]):
        """Tensor-name → wire-destination key for the fused-bucket plan.

        The wire-plan layer (:mod:`repro.exchange.wireplan`) calls this
        before any service exists, so the returned function must be
        derivable from the parameter sizes alone — which it is: the
        sharded partition is the deterministic greedy owner map, and the
        hierarchical cross tier reuses it for a sharded upper service.
        ``None`` means every fused frame shares one destination (the
        single server, a single cross-rack uplink service).
        """
        return None

    def transmission_routes(self, service) -> dict[str, str]:
        """Map each parameter tensor to the link its messages traverse.

        This is the topology half of the exchange plan the network
        simulator (:mod:`repro.netsim`) replays: the engine stamps every
        recorded transmission with its route, and the simulator serializes
        transfers per route instead of assuming one shared server NIC.
        The default sends everything through the single ``"server"`` link.
        """
        return {name: "server" for name in service.params}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name!r})"


class SingleServerTopology(ExchangeTopology):
    """One parameter server owns the whole model (paper §5.2)."""

    name = "single"
    supports_fusion = True

    def build_service(
        self,
        parameters,
        optimizer_factory,
        schedule,
        scheme,
        *,
        num_workers,
        small_tensor_threshold=SMALL_TENSOR_THRESHOLD,
        fusion_plan=FusionPlan(),
    ) -> ParameterServer:
        return ParameterServer(
            parameters,
            optimizer_factory(),
            schedule,
            scheme,
            num_workers,
            small_tensor_threshold=small_tensor_threshold,
            fusion_plan=fusion_plan,
        )


class ShardedTopology(ExchangeTopology):
    """The model is partitioned across independent parameter servers."""

    supports_fusion = True

    def __init__(self, num_shards: int = 2):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self.name = f"sharded(shards={num_shards})"

    def fusion_partition(self, sizes: dict[str, int]):
        """Buckets must not span shards: partition by the greedy owner map
        — the same deterministic map the service itself derives."""
        return shard_owner_map(sizes, self.num_shards).__getitem__

    def build_service(
        self,
        parameters,
        optimizer_factory,
        schedule,
        scheme,
        *,
        num_workers,
        small_tensor_threshold=SMALL_TENSOR_THRESHOLD,
        fusion_plan=FusionPlan(),
    ) -> ShardedParameterService:
        return ShardedParameterService(
            parameters,
            optimizer_factory,
            schedule,
            scheme,
            num_workers=num_workers,
            num_shards=self.num_shards,
            small_tensor_threshold=small_tensor_threshold,
            fusion_plan=fusion_plan,
        )

    def transmission_routes(self, service) -> dict[str, str]:
        """Each tensor travels through its owning shard's independent NIC."""
        return {
            name: f"shard{service.shard_of(name)}" for name in service.params
        }


class RingOutcome:
    """Result of one ring exchange round."""

    __slots__ = (
        "deltas",
        "wire_bytes",
        "codec_seconds",
        "elements",
        "max_link_bytes",
        "per_tensor_link_bytes",
        "per_tensor_elements",
    )

    def __init__(
        self,
        deltas: dict[str, np.ndarray],
        wire_bytes: int,
        codec_seconds: float,
        elements: int,
        max_link_bytes: int,
        per_tensor_link_bytes: dict[str, int] | None = None,
        per_tensor_elements: dict[str, int] | None = None,
    ):
        self.deltas = deltas
        self.wire_bytes = wire_bytes
        self.codec_seconds = codec_seconds
        self.elements = elements
        self.max_link_bytes = max_link_bytes
        #: Per-tensor bytes the *busiest single link* carried — the honest
        #: quantity for ring step time (every link works in parallel; the
        #: server-NIC model would wrongly charge the all-links sum).
        self.per_tensor_link_bytes = per_tensor_link_bytes or {}
        #: Per-tensor transmitted element counts (2 (N-1)/N of the size).
        self.per_tensor_elements = per_tensor_elements or {}


class RingExchangeService:
    """Serverless exchange: gradients are averaged by one ring all-reduce
    over all tensors (hops in lockstep, persistent per-hop compression
    contexts), and the global update is applied once to a canonical model
    every replica mirrors.

    Small tensors travel as raw float32 chunks (the §5.1 bypass maps to an
    uncompressed ring); large tensors compress per hop, so error feedback
    corrects each *link* across training steps.
    """

    wants_raw_gradients = True

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
        if num_workers < 2:
            raise ValueError(
                f"a ring needs >= 2 workers, got {num_workers}"
            )
        self.optimizer = optimizer
        self.schedule = schedule
        self.scheme = scheme
        self.num_workers = int(num_workers)
        self.small_tensor_threshold = int(small_tensor_threshold)
        self.params: dict[str, Parameter] = {
            p.name: Parameter(p.name, p.data.copy(), weight_decay=p.weight_decay)
            for p in parameters
        }
        self.bypassed: set[str] = {
            name
            for name, param in self.params.items()
            if param.size < self.small_tensor_threshold
        }
        self.ring = RingAllReduce(
            self.num_workers,
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
        if len(grad_dicts) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} gradient sets, got {len(grad_dicts)}"
            )
        t0 = time.perf_counter()
        reduced: dict[str, np.ndarray] = {}
        wire = 0
        max_link = 0
        elements = 0
        per_tensor_link: dict[str, int] = {}
        per_tensor_elements: dict[str, int] = {}
        results = self.ring.reduce(grad_dicts, average=True)
        for name, param in self.params.items():
            result = results[name]
            reduced[name] = result.outputs[0]
            wire += result.wire_bytes
            max_link = max(max_link, result.max_link_bytes)
            per_tensor_link[name] = result.max_link_bytes
            per_tensor_elements[name] = (
                param.size * 2 * (self.num_workers - 1) // self.num_workers
            )
            elements += per_tensor_elements[name]
        codec_seconds = time.perf_counter() - t0

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
        return RingOutcome(
            deltas,
            wire,
            codec_seconds,
            elements,
            max_link,
            per_tensor_link,
            per_tensor_elements,
        )


class RingTopology(ExchangeTopology):
    """Ring all-reduce: no server, per-hop compression, no pull phase."""

    name = "ring"
    wants_raw_gradients = True
    supports_event_modes = False

    def build_service(
        self,
        parameters,
        optimizer_factory,
        schedule,
        scheme,
        *,
        num_workers,
        small_tensor_threshold=SMALL_TENSOR_THRESHOLD,
        fusion_plan=FusionPlan(),
    ) -> RingExchangeService:
        if fusion_plan.buckets:
            raise ValueError(fusion_incompatibility("ring"))
        return RingExchangeService(
            parameters,
            optimizer_factory(),
            schedule,
            scheme,
            num_workers=num_workers,
            small_tensor_threshold=small_tensor_threshold,
        )

    def transmission_routes(self, service) -> dict[str, str]:
        """Every tensor circulates the ring's (lockstep) hop links."""
        return {name: "ring" for name in service.params}


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
       the scarce link across steps) and pushes it to the upper
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

    wants_raw_gradients = True

    def __init__(
        self,
        parameters: list[Parameter],
        optimizer_factory,
        schedule: Schedule,
        scheme: Compressor,
        *,
        racks: int,
        rack_size: int,
        upper_worker_slots: int | None = None,
        upper: str = "single",
        num_shards: int = 2,
        small_tensor_threshold: int = SMALL_TENSOR_THRESHOLD,
        fusion_plan: FusionPlan = FusionPlan(),
    ):
        if rack_size < 2:
            raise ValueError(
                f"a rack ring needs >= 2 workers, got rack_size={rack_size}"
            )
        self.racks = int(racks)
        self.rack_size = int(rack_size)
        self.schedule = schedule
        self.scheme = scheme

        if upper_worker_slots is None:
            upper_worker_slots = self.racks
        if upper == "single":
            self.upper = ParameterServer(
                parameters,
                optimizer_factory(),
                schedule,
                scheme,
                upper_worker_slots,
                small_tensor_threshold=small_tensor_threshold,
                fusion_plan=fusion_plan,
            )
        elif upper == "sharded":
            self.upper = ShardedParameterService(
                parameters,
                optimizer_factory,
                schedule,
                scheme,
                num_workers=upper_worker_slots,
                num_shards=num_shards,
                small_tensor_threshold=small_tensor_threshold,
                fusion_plan=fusion_plan,
            )
        else:
            raise ValueError(
                f"unknown upper tier {upper!r}; expected 'single' or 'sharded'"
            )
        self.params = self.upper.params
        bypassed = self.bypassed
        shapes = {name: param.shape for name, param in self.params.items()}
        self.rack_rings = [
            RingAllReduce(self.rack_size, shapes, scheme, bypass=bypassed)
            for _ in range(self.racks)
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
            for rack in range(self.racks)
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

    def cross_routes(self) -> dict[str, str]:
        """Map each tensor to the cross-rack tier its aggregate traverses.

        Sharded uppers name the owning shard's NIC directly; a single
        upper server returns the ``"cross"`` marker, which the engine
        qualifies per rack (``cross:rack<r>``) when it emits records —
        each rack reaches the core over its own uplink.
        """
        if isinstance(self.upper, ShardedParameterService):
            return {
                name: f"cross:shard{self.upper.shard_of(name)}"
                for name in self.params
            }
        return {name: "cross" for name in self.params}

    # -- the two-phase exchange --------------------------------------------

    def _reduce_rack(
        self, rack: int, grad_dicts: list[dict[str, np.ndarray]]
    ) -> tuple[dict[str, np.ndarray], dict[str, int], int, float]:
        """Phase 1 for one rack: ring-reduce its members' gradients.

        Returns (rack-averaged gradients, per-tensor busiest-link bytes,
        all-links wire bytes, codec seconds).
        """
        t0 = time.perf_counter()
        reduced: dict[str, np.ndarray] = {}
        link_bytes: dict[str, int] = {}
        wire = 0
        results = self.rack_rings[rack].reduce(grad_dicts, average=True)
        for name, result in results.items():
            reduced[name] = result.outputs[0]
            link_bytes[name] = result.max_link_bytes
            wire += result.wire_bytes
        return reduced, link_bytes, wire, time.perf_counter() - t0

    def _compress_uplink(
        self, rack: int, rack_grads: dict[str, np.ndarray]
    ) -> tuple[dict[str, WireFrame | None], float]:
        """Phase 2 (up) for one rack: compress the aggregate for the core."""
        t0 = time.perf_counter()
        messages = self.uplinks[rack].compress(rack_grads)
        return messages, time.perf_counter() - t0

    def _per_tensor_elements(self) -> dict[str, int]:
        w = self.rack_size
        return {
            name: param.size * 2 * (w - 1) // w
            for name, param in self.params.items()
        }

    def _ring_frames(self, racks: int) -> int:
        w = self.rack_size
        return len(self.params) * 2 * (w - 1) * w * racks

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
        per_tensor_elements = self._per_tensor_elements()
        rack_grads: list[dict[str, np.ndarray]] = []
        per_rack_link_bytes: list[dict[str, int]] = []
        rack_codec: list[float] = []
        intra_wire = 0
        for rack in range(self.racks):
            group = grad_dicts[rack * self.rack_size : (rack + 1) * self.rack_size]
            reduced, link_bytes, wire, codec = self._reduce_rack(rack, group)
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
        per_tensor_elements = self._per_tensor_elements()
        reduced, link_bytes, wire, codec = self._reduce_rack(rack, grad_dicts)
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


class HierarchicalTopology(ExchangeTopology):
    """Rack-local rings feeding a cross-rack parameter service."""

    wants_raw_gradients = True
    supports_event_modes = True
    #: Fused buckets apply to the point-to-point cross-rack tier: rack
    #: aggregates of plan-owned tensors cross the uplink as one frame per
    #: bucket per rack.
    supports_fusion = True

    def __init__(
        self,
        racks: int = 2,
        rack_size: int = 2,
        *,
        upper: str = "single",
        num_shards: int = 2,
    ):
        if rack_size < 2:
            raise ValueError(
                f"a rack ring needs >= 2 workers, got rack_size={rack_size}"
            )
        if upper not in ("single", "sharded"):
            raise ValueError(
                f"unknown upper tier {upper!r}; expected 'single' or 'sharded'"
            )
        self.racks = int(racks)
        self.rack_size = int(rack_size)
        self.upper = upper
        self.num_shards = int(num_shards)
        suffix = f", upper={upper}" if upper != "single" else ""
        self.name = f"hier(racks={racks}, rack={rack_size}{suffix})"

    def fusion_partition(self, sizes: dict[str, int]):
        """Buckets cross the rack uplink whole: one destination for a
        single upper service, the upper shard owner map otherwise."""
        if self.upper != "sharded":
            return None
        return shard_owner_map(sizes, self.num_shards).__getitem__

    def build_service(
        self,
        parameters,
        optimizer_factory,
        schedule,
        scheme,
        *,
        num_workers,
        small_tensor_threshold=SMALL_TENSOR_THRESHOLD,
        fusion_plan=FusionPlan(),
    ) -> HierarchicalExchangeService:
        # The engine passes the sync mode's aggregation slot count:
        # the full worker count for BSP (every rack pushes each step) or 1
        # for async/SSP (racks commit one at a time).
        if num_workers == 1:
            upper_slots = 1
        else:
            if num_workers != self.racks * self.rack_size:
                raise ValueError(
                    f"num_workers={num_workers} is not {self.racks} racks of "
                    f"{self.rack_size} (racks * rack_size must equal the "
                    "worker count)"
                )
            upper_slots = self.racks
        return HierarchicalExchangeService(
            parameters,
            optimizer_factory,
            schedule,
            scheme,
            racks=self.racks,
            rack_size=self.rack_size,
            upper_worker_slots=upper_slots,
            upper=self.upper,
            num_shards=self.num_shards,
            small_tensor_threshold=small_tensor_threshold,
            fusion_plan=fusion_plan,
        )

    def transmission_routes(self, service) -> dict[str, str]:
        """Cross-rack route per tensor (intra-rack collective and
        broadcast records are stamped ``rack<r>`` by the engine)."""
        return service.cross_routes()


#: Registry of topology names accepted by the engine and the harness.
TOPOLOGIES = ("single", "sharded", "ring", "hier")


def make_topology(
    name: str,
    *,
    num_shards: int = 2,
    racks: int = 2,
    rack_size: int = 2,
    hier_upper: str = "single",
) -> ExchangeTopology:
    """Construct a topology from its registry name and knobs."""
    if name == "single":
        return SingleServerTopology()
    if name == "sharded":
        return ShardedTopology(num_shards)
    if name == "ring":
        return RingTopology()
    if name == "hier":
        return HierarchicalTopology(
            racks, rack_size, upper=hier_upper, num_shards=num_shards
        )
    raise ValueError(f"unknown topology {name!r}; expected one of {TOPOLOGIES}")
