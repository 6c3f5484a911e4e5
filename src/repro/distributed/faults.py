"""Fault injection: worker crashes, rack uplink flaps, departures.

The paper's compression schemes keep persistent per-link error-feedback
state, which is exactly the state a real fleet corrupts when a worker
crashes or a rack falls off its uplink. A :class:`FaultSpec` describes a
deterministic churn scenario — *which* worker or rack fails at *which*
step and for *how long* — so the engine can replay it reproducibly and
the simulator can score its cost the same way it scores overlap.

Semantics (:class:`Churn`, the runtime an engine builds from its spec,
enforces these):

- A :class:`WorkerCrash` removes the worker from the barrier for
  ``down_steps`` steps. On rejoin the recovery layer restores the
  worker's checkpointed error-feedback residuals and resyncs its model
  replica from the server (``FaultSpec.checkpoint_state=True``), or —
  the naive baseline — does neither, leaving zeroed residuals and a
  stale replica that permanently misses the down-window deltas.
- Crashes count against ``max_restarts``; a worker that exceeds the cap
  (or crashes with ``depart=True``) leaves permanently.
- An :class:`UplinkFlap` takes one rack's cross-rack uplink down for
  ``down_steps`` steps under ``--topology hier``: the rack keeps
  ring-reducing and stepping locally, its aggregate is excluded from
  the global exchange, and on rejoin the backlog is pushed through the
  uplink's error-feedback context while members resync from the core.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.distributed.barriers import FullBarrier

__all__ = ["WorkerCrash", "UplinkFlap", "FaultSpec", "Churn"]


def _validate(event, minimums: dict[str, int], flags: tuple[str, ...] = ()) -> None:
    """Refuse a count that is not an integer (``bool`` included) or is
    below its minimum, and a flag that is not a ``bool``, naming the
    field and the value."""
    for name, minimum in minimums.items():
        value = getattr(event, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(
                f"{type(event).__name__}.{name} must be an integer, got {value!r}"
            )
        if value < minimum:
            raise ValueError(
                f"{type(event).__name__}.{name} must be >= {minimum}, got {value!r}"
            )
    for name in flags:
        value = getattr(event, name)
        if not isinstance(value, bool):
            raise ValueError(
                f"{type(event).__name__}.{name} must be a bool, got {value!r}"
            )


@dataclass(frozen=True)
class WorkerCrash:
    """One worker process dies at the start of ``step``.

    The worker misses ``down_steps`` consecutive steps (crash step
    included) and attempts to rejoin at ``step + down_steps`` unless
    ``depart`` is set or its restart budget is exhausted.
    """

    worker: int
    step: int
    down_steps: int = 1
    depart: bool = False

    def __post_init__(self):
        _validate(self, {"worker": 0, "step": 0, "down_steps": 1}, ("depart",))


@dataclass(frozen=True)
class UplinkFlap:
    """One rack's cross-rack uplink drops at the start of ``step``.

    The rack degrades to local-only training for ``down_steps`` steps
    and re-syncs on rejoin; ``rejoin_delay_seconds`` models the extra
    time the rejoin step's cross link is unavailable while the fabric
    re-converges (replayed by the simulator as a link-down floor).
    """

    rack: int
    step: int
    down_steps: int = 1
    rejoin_delay_seconds: float = 0.0

    def __post_init__(self):
        _validate(self, {"rack": 0, "step": 0, "down_steps": 1})
        delay = self.rejoin_delay_seconds
        if not (
            isinstance(delay, numbers.Real) and math.isfinite(delay) and delay >= 0
        ):
            raise ValueError(
                "UplinkFlap.rejoin_delay_seconds must be finite and >= 0, "
                f"got {delay!r}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """A deterministic churn scenario for one run.

    Hashable (tuples of frozen events) so it can ride a frozen config
    and land in the replay-cache fingerprint — two runs differing only
    in their faults must never share a recording.
    """

    crashes: tuple[WorkerCrash, ...] = ()
    flaps: tuple[UplinkFlap, ...] = ()
    #: Per-worker restart budget; a crash beyond it becomes a departure.
    max_restarts: int = 2
    #: True: restore checkpointed error-feedback residuals and resync
    #: the replica on rejoin. False: the naive baseline (no recovery
    #: protocol) — measurably corrupts convergence.
    checkpoint_state: bool = True

    def __post_init__(self):
        _validate(self, {"max_restarts": 0}, ("checkpoint_state",))
        crash_steps = [(c.worker, c.step) for c in self.crashes]
        if len(set(crash_steps)) != len(crash_steps):
            raise ValueError("duplicate (worker, step) crash events")
        flap_steps = [(f.rack, f.step) for f in self.flaps]
        if len(set(flap_steps)) != len(flap_steps):
            raise ValueError("duplicate (rack, step) flap events")

    @property
    def empty(self) -> bool:
        return not self.crashes and not self.flaps

    def crash_at(self, worker: int, step: int) -> WorkerCrash | None:
        """The crash event hitting ``worker`` at ``step``, if any."""
        for crash in self.crashes:
            if crash.worker == worker and crash.step == step:
                return crash
        return None

    def flap_at(self, rack: int, step: int) -> UplinkFlap | None:
        """The flap event hitting ``rack`` at ``step``, if any."""
        for flap in self.flaps:
            if flap.rack == rack and flap.step == step:
                return flap
        return None


class Churn:
    """A run's :class:`FaultSpec`, replayed step by step.

    It owns all fault state, so an engine step only asks it which workers
    compute (:meth:`live_workers`), which racks reach the core
    (:meth:`cut_racks`, :meth:`reached`, then :meth:`settle`), how the
    barrier decides (:meth:`decide`) and what the step's rejoins put on the
    wire (:meth:`post`). With an empty spec every call is a no-op.
    """

    def __init__(self, spec: FaultSpec, workers, service):
        self.spec = spec
        self.workers = workers
        self.service = service
        #: Chronological churn events: crash / restart / departure / flap /
        #: rejoin dicts, each tagged with the step it happened at.
        self.log: list[dict] = []
        # Worker churn: wid -> step it may rejoin at (present: down now),
        # departures, crash counts, and crash-time error-feedback
        # checkpoints. A crash wipes the live contexts back to the
        # zero-residual snapshot taken here until recovery restores them.
        self.down_until: dict[int, int] = {}
        self.departed: set[int] = set()
        self.restarts: dict[int, int] = {}
        self.checkpoints: dict[int, dict] = {}
        self.pristine = {
            wid: workers[wid].snapshot_state()
            for wid in {crash.worker for crash in spec.crashes}
        }
        # Rack churn (hier): rack -> rejoin step, banked outage gradients,
        # and the rejoin step's link-down floor.
        self.rack_down_until: dict[int, int] = {}
        self.backlog: dict[int, dict[str, np.ndarray]] = {}
        self.rejoin_delay: dict[int, float] = {}
        self.degraded_steps = 0
        # The current step, its resynced workers and its rejoined racks.
        self.step, self.resynced, self.rejoined = 0, [], []

    def _members(self, rack: int):
        size = self.service.rack_size
        return self.workers[rack * size : (rack + 1) * size]

    def live_workers(self, step: int) -> list:
        """Process the crash and restart events due at ``step``; return the
        workers that compute it.

        A crash takes its worker out before compute. A worker rejoining at
        ``step`` resyncs from the pre-step global model (checkpointed
        recovery only — the naive baseline keeps zeroed residuals and a
        replica frozen at crash time) and computes normally.
        """
        self.step, self.resynced = step, []
        for worker in self.workers:
            wid = worker.worker_id
            if wid in self.departed:
                continue
            crash = self.spec.crash_at(wid, step)
            if crash is not None:
                self.restarts[wid] = self.restarts.get(wid, 0) + 1
                # Checkpoint the push-side error feedback *at crash time* —
                # the state a recovery protocol would have persisted — then
                # wipe the live contexts: an in-memory crash loses them.
                self.checkpoints[wid] = worker.snapshot_state()
                worker.restore_state(self.pristine[wid])
                self.log.append({"event": "crash", "step": step, "worker": wid})
                if crash.depart or self.restarts[wid] > self.spec.max_restarts:
                    self.departed.add(wid)
                    self.log.append({"event": "departure", "step": step, "worker": wid})
                else:
                    self.down_until[wid] = step + crash.down_steps
            elif wid in self.down_until and step >= self.down_until[wid]:
                del self.down_until[wid]
                checkpoint = self.checkpoints.pop(wid)
                recovery = "checkpoint" if self.spec.checkpoint_state else "none"
                if self.spec.checkpoint_state:
                    worker.restore_state(checkpoint)
                    worker.model.load_state_dict(self.service.state_dict())
                    self.resynced.append(wid)
                self.log.append(
                    dict(event="restart", step=step, worker=wid, recovery=recovery)
                )
        return [
            worker
            for worker in self.workers
            if worker.worker_id not in self.down_until
            and worker.worker_id not in self.departed
        ]

    def cut_racks(self, step: int) -> dict:
        """Process the flap and rejoin events due at ``step``; return the
        ``down_racks`` / ``catch_up`` arguments of the step's exchange
        (none without flaps, which only a hierarchy has).

        A rack whose uplink comes back pushes its banked outage-window
        gradients this step; its members resync in :meth:`settle`.
        """
        if not self.spec.flaps:
            return {}
        self.step, self.rejoined = step, []
        for rack in range(self.service.racks):
            flap = self.spec.flap_at(rack, step)
            if flap is not None:
                self.rack_down_until[rack] = step + flap.down_steps
                self.rejoin_delay[rack] = flap.rejoin_delay_seconds
                self.backlog.setdefault(
                    rack,
                    {
                        name: np.zeros(param.shape, dtype=np.float32)
                        for name, param in self.service.params.items()
                    },
                )
                self.log.append({"event": "flap", "step": step, "rack": rack})
            elif rack in self.rack_down_until and step >= self.rack_down_until[rack]:
                del self.rack_down_until[rack]
                self.rejoined.append(rack)
        return dict(
            down_racks=frozenset(self.rack_down_until),
            catch_up={rack: self.backlog[rack] for rack in self.rejoined},
        )

    def reached(self, workers: list) -> list:
        """The ``workers`` a step's shared deltas reach: all but the members
        of racks cut off from the core."""
        if not self.rack_down_until:
            return workers
        size = self.service.rack_size
        return [w for w in workers if w.worker_id // size not in self.rack_down_until]

    def settle(self, outcome, lr: float) -> None:
        """Finish a step's rack churn once its exchange ran.

        A cut-off rack ring-reduced its members' gradients but the
        aggregate could not reach the core: members apply a plain SGD step
        on the rack average (no momentum or weight decay — the core owns
        the optimizer state) and the gradient is banked for the rejoin
        catch-up push. A rejoined rack's catch-up went up this step; its
        members resync from the post-step global model, replacing the
        outage-window local drift.
        """
        for rack, grads in outcome.down_rack_grads.items():
            backlog = self.backlog[rack]
            local_delta = {name: -lr * grad for name, grad in grads.items()}
            for name, grad in grads.items():
                backlog[name] += grad
            for worker in self._members(rack):
                worker.apply_pull(local_delta)
        if outcome.down_rack_grads:
            self.degraded_steps += 1
        if self.rejoined:
            global_state = self.service.state_dict()
            for rack in self.rejoined:
                for worker in self._members(rack):
                    worker.model.load_state_dict(global_state)
                self.backlog.pop(rack, None)
                self.log.append({"event": "rejoin", "step": self.step, "rack": rack})

    def post(self, ledger, wire) -> tuple[tuple[str, float], ...]:
        """Post this step's resync transfers through ``wire`` (the service's
        :class:`~repro.exchange.topology.Wire`); return its link-down floors.

        A rejoined rack's uplink is back but still re-converging: its own
        cross route is floored at its flap's rejoin delay.
        """
        for wid in self.resynced:
            wire.post_resync(ledger, worker=wid)
        floors: dict[str, float] = {}
        for rack in self.rejoined:
            delay = self.rejoin_delay.pop(rack)
            for route in wire.post_resync(ledger, rack=rack):
                if delay > 0.0:
                    floors[route] = max(floors.get(route, 0.0), delay)
        return tuple(sorted(floors.items()))

    @staticmethod
    def decide(barrier, arrivals: dict[int, float]):
        """Barrier decision tolerant of a fault-shrunk arrival set.

        A backup-worker barrier demands ``num_workers - backup_workers``
        arrivals; when churn leaves fewer live workers the step degrades
        to waiting for everyone still alive instead of deadlocking.
        """
        required = getattr(barrier, "required", None)
        if required is not None and len(arrivals) < required:
            return FullBarrier().decide(arrivals)
        return barrier.decide(arrivals)

    def summary(self, resync_bytes: int) -> dict | None:
        """Aggregate churn telemetry for results archives (None = no faults)."""
        if self.spec.empty:
            return None
        counts = Counter(event["event"] for event in self.log)
        return {
            "crashes": counts["crash"],
            "restarts": counts["restart"],
            "departures": counts["departure"],
            "flaps": counts["flap"],
            "rejoins": counts["rejoin"],
            "resync_bytes": resync_bytes,
            "degraded_steps": self.degraded_steps,
            "checkpoint_state": self.spec.checkpoint_state,
        }
