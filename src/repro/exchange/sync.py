"""Synchronization modes: when gradient exchange happens (paper §2.1).

The paper contrasts bulk-synchronous training (its baseline, TensorFlow's
``SyncReplicasOptimizer``) with two relaxations — fully asynchronous
parameter-server updates and stale synchronous parallel (SSP, Ho et al.).
Each relaxation used to carry its own driver loop; the unified
:class:`~repro.exchange.engine.ExchangeEngine` instead asks a
:class:`SyncMode` for the scheduling decisions and keeps one loop per
family:

* :class:`BSPMode` — lock-step global steps arbitrated by a barrier
  (:class:`~repro.distributed.barriers.FullBarrier`, or the backup-worker
  barrier when ``backup_workers > 0``).
* :class:`AsyncMode` — event-driven: the eligible worker with the earliest
  virtual-clock finish time applies its gradient immediately, unbounded
  staleness.
* :class:`SSPMode` — async with eligibility bounded by a staleness
  threshold (``k = 0`` degenerates to lock-step execution).

A mode also pins the RNG stream labels and pull-context key prefix the
seed's trainer for that mode used, so the engine stays bit-identical to it.
"""

from __future__ import annotations

import abc
import numbers

from repro.distributed.barriers import BackupWorkerBarrier, FullBarrier

__all__ = ["SyncMode", "BSPMode", "AsyncMode", "SSPMode", "make_sync_mode", "SYNC_MODES"]


class SyncMode(abc.ABC):
    """How workers coordinate: lock-step barriers or event-driven updates."""

    name: str = "abstract"
    #: True when the engine should run lock-step global steps.
    synchronous: bool = True
    #: RNG stream labels for batcher / augmenter construction. These differ
    #: between the seed's BSP and async trainers; preserving them keeps the
    #: engine reproducing seed trajectories exactly.
    batch_stream: str = "batch"
    augment_stream: str = "augment"
    #: Key prefix for engine-owned per-worker pull contexts (async modes).
    pull_key_prefix: str = "pull"

    def service_worker_slots(self, num_workers: int) -> int:
        """Worker count the parameter service should size aggregation for
        (async modes apply one push at a time)."""
        return num_workers

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.name!r})"


class BSPMode(SyncMode):
    """Bulk-synchronous parallel, optionally with backup workers."""

    synchronous = True

    def __init__(self, backup_workers: int = 0):
        if backup_workers < 0:
            raise ValueError("backup_workers must be >= 0")
        self.backup_workers = int(backup_workers)
        self.name = "bsp" if backup_workers == 0 else f"bsp(backup={backup_workers})"

    def make_barrier(self, num_workers: int):
        if not (0 <= self.backup_workers < num_workers):
            raise ValueError("backup_workers must be in [0, num_workers)")
        if self.backup_workers == 0:
            return FullBarrier()
        return BackupWorkerBarrier(num_workers - self.backup_workers)


class AsyncMode(SyncMode):
    """Fully asynchronous parameter-server updates (unbounded staleness)."""

    name = "async"
    synchronous = False
    batch_stream = "b"
    augment_stream = "a"
    pull_key_prefix = "apull"
    staleness: int | None = None

    def service_worker_slots(self, num_workers: int) -> int:
        # The server aggregates one worker's push at a time (divisor 1).
        return 1

    def eligible(self, local_steps: dict[int, int]) -> list[int]:
        """Worker ids allowed to run their next local step."""
        return list(local_steps)


class SSPMode(AsyncMode):
    """Stale synchronous parallel: async bounded by a staleness threshold."""

    def __init__(self, staleness: int):
        if not isinstance(staleness, numbers.Integral) or isinstance(staleness, bool):
            raise ValueError(f"staleness must be an integer, got {staleness!r}")
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.staleness = int(staleness)
        self.name = f"ssp(staleness={staleness})"

    def eligible(self, local_steps: dict[int, int]) -> list[int]:
        slowest = min(local_steps.values())
        return [
            wid
            for wid, steps in local_steps.items()
            if steps - slowest <= self.staleness
        ]


#: Registry of sync-mode names accepted by the engine and the harness.
SYNC_MODES = ("bsp", "async", "ssp")


def make_sync_mode(
    name: str, *, backup_workers: int = 0, staleness: int | None = None
) -> SyncMode:
    """Construct a sync mode from its registry name and knobs."""
    if name == "bsp":
        if staleness is not None:
            raise ValueError(
                f"staleness={staleness} only applies to SSP, not 'bsp'"
            )
        return BSPMode(backup_workers)
    if backup_workers:
        raise ValueError(
            f"backup_workers={backup_workers} only apply to BSP, not {name!r}"
        )
    if name == "async":
        if staleness is not None:
            raise ValueError(
                f"fully async mode has no staleness bound (got {staleness}); "
                "use 'ssp'"
            )
        return AsyncMode()
    if name == "ssp":
        if staleness is None:
            raise ValueError("SSP requires a staleness bound")
        return SSPMode(staleness)
    raise ValueError(f"unknown sync mode {name!r}; expected one of {SYNC_MODES}")
