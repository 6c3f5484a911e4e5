"""Unified gradient/delta exchange: topology × sync mode × fused codec path.

The exchange subsystem separates three concerns (the MLSys layering
argument — see ARCHITECTURE.md), each decided in one place:

* **what travels** — per-tensor compression contexts or fused buckets
  (:mod:`repro.compression.fusion`);
* **where it travels** — a topology name (single server, sharded service,
  ring all-reduce, hierarchical) whose rules are
  :class:`~repro.exchange.engine.EngineConfig`'s and whose service
  :func:`~repro.exchange.topology.build_service` makes;
* **when it travels** — a sync-mode name (BSP with full/backup barriers,
  fully async, SSP; one of ``SYNC_MODES``) whose rules are also
  ``EngineConfig``'s.

:class:`~repro.exchange.engine.ExchangeEngine` composes the three and is
the only trainer: one ``train_step`` is one scheduling quantum, finalized
in one place and accounted through one wire ledger. ``EngineConfig``
declares every field the engine reads, once; the harness's
``ExperimentConfig`` derives from it and is handed to the engine as is.
"""

from repro.distributed.server import ExchangeOutcome
from repro.exchange.clock import MEASURED, MODELED, Clock
from repro.exchange.engine import (
    SYNC_MODES,
    EngineConfig,
    EvalResult,
    ExchangeEngine,
    StepLog,
    scheme_incompatibility,
)
from repro.exchange.topology import (
    TOPOLOGIES,
    HierarchicalExchangeService,
    RingExchangeService,
    build_service,
    transmission_routes,
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
    "SYNC_MODES",
    "build_service",
    "transmission_routes",
    "ExchangeOutcome",
    "RingExchangeService",
    "HierarchicalExchangeService",
    "TOPOLOGIES",
]
