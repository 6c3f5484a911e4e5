"""Unified gradient/delta exchange: topology × sync mode × fused codec path.

The exchange subsystem separates three concerns (the MLSys layering
argument — see ARCHITECTURE.md):

* **what travels** — per-tensor compression contexts or fused buckets
  (:mod:`repro.compression.fusion`);
* **where it travels** — :class:`~repro.exchange.topology.ExchangeTopology`
  (single server, sharded service, ring all-reduce);
* **when it travels** — :class:`~repro.exchange.sync.SyncMode`
  (BSP with full/backup barriers, fully async, SSP).

:class:`~repro.exchange.engine.ExchangeEngine` composes the three and is
the only trainer: one ``train_step`` is one scheduling quantum, finalized
in one place and accounted through one wire ledger.
"""

from repro.exchange.clock import MEASURED, MODELED, Clock
from repro.exchange.engine import (
    EngineConfig,
    EvalResult,
    ExchangeEngine,
    StepLog,
    scheme_incompatibility,
)
from repro.exchange.sync import (
    SYNC_MODES,
    AsyncMode,
    BSPMode,
    SSPMode,
    SyncMode,
    make_sync_mode,
)
from repro.exchange.wireplan import build_wire_plan, fusion_incompatibility
from repro.exchange.topology import (
    TOPOLOGIES,
    ExchangeTopology,
    HierarchicalExchangeService,
    HierarchicalOutcome,
    HierarchicalTopology,
    RingExchangeService,
    RingOutcome,
    RingTopology,
    ShardedTopology,
    SingleServerTopology,
    make_topology,
)

__all__ = [
    "ExchangeEngine",
    "EngineConfig",
    "EvalResult",
    "StepLog",
    "scheme_incompatibility",
    "Clock",
    "MEASURED",
    "MODELED",
    "SyncMode",
    "BSPMode",
    "AsyncMode",
    "SSPMode",
    "make_sync_mode",
    "SYNC_MODES",
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
    "build_wire_plan",
    "fusion_incompatibility",
]
