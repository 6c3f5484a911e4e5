"""Incremental sweep replay: reuse recordings across sweep points.

A parameter sweep (bandwidth grid, cross-rack RTT curve, core
oversubscription scan) varies knobs that only the *network model* sees —
training dynamics, and therefore the recorded transmission plan, are
bit-identical at every point. Re-training the cluster per point makes
sweep cost scale with training time instead of simulator time, which the
vectorized event core just made cheap.

:class:`SweepReplayCache` breaks that coupling with two explicit cache
levels, each guarded by a hashable invalidation key:

* **Recordings** (:class:`RecordingKey`): the outcome of one training run —
  transmission plans, per-update event streams, traffic accounting, and
  evaluation metrics. The key's ``fingerprint`` must capture every knob
  that can change what the engine records: scheme, step budget, topology,
  sync mode and staleness bound, fusion plan (including bucket capacity),
  cluster shape, and all seeds. Harness code builds the fingerprint by
  *canonicalizing* the simulation-only knobs of its config (link rate,
  cross-rack bandwidth fraction and RTT, time model) so that sweep points
  differing only in those knobs map to the same key — a cache hit replays
  the recorded plans through the simulator and skips training entirely.
* **Simulations**: per-link simulator outputs
  (:class:`~repro.netsim.scheduler.SimulatedRun`, event-driven exchange
  reports), keyed by the recording key *plus* every network-model knob the
  recording key canonicalized away — the
  :class:`~repro.network.bandwidth.LinkSpec`, the
  :class:`~repro.network.timing.StepTimeModel`, and the topology's link
  composition parameters. Two sweep points that share both the recording
  and the link model get the identical simulation object back.

Both levels are exact-match caches over frozen keys: there is no fuzzy
reuse, so a hit is bit-identical to a cold run by construction. Counters
(``hits`` / ``misses`` per level) make sweep drivers' savings observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["RecordingKey", "RecordedTraining", "SweepReplayCache"]


@dataclass(frozen=True)
class RecordingKey:
    """Invalidation key for one cached training recording.

    Attributes
    ----------
    scheme:
        Compression-scheme name (schemes change wire bytes, codec choices,
        and — through error feedback — training dynamics).
    steps:
        Trained step budget (the cosine schedule depends on it).
    fingerprint:
        Hashable projection of the experiment configuration covering every
        remaining recording-relevant knob: topology, sync mode, staleness,
        fusion settings (``fuse_small_tensors`` / ``bucket_elements`` /
        ``fuse_lossy`` — bucket membership is baked into recorded frames,
        so bucket capacity **invalidates**), cluster shape, model/dataset/
        cluster/scheme seeds. Simulation-only knobs must be canonicalized
        out by the caller so they cannot split the cache.
    """

    scheme: str
    steps: int
    fingerprint: Hashable


@dataclass(frozen=True)
class RecordedTraining:
    """Everything one training run contributes to downstream results.

    Immutable snapshot: sequences are tuples so a cache hit cannot be
    mutated by one sweep point and corrupt the next.
    """

    #: Per-step BSP transmission plans (``StepTransmissions`` tuple).
    transmissions: tuple
    #: Per-update event stream (``UpdateTransmissions`` tuple; empty for
    #: synchronous runs).
    update_events: tuple
    #: Periodic evaluations, final evaluation included.
    evals: tuple
    #: Final global-model evaluation.
    final: Any
    #: Per-step mean training loss.
    loss_curve: tuple
    #: The run's traffic meter (byte/frame accounting for every step).
    traffic: Any
    #: Whether the exchange plan was synchronous (selects the simulator).
    synchronous: bool
    #: ``ExchangeEngine.fault_summary()`` of the recording run — churn
    #: event counts and resync accounting, ``None`` when the run had no
    #: fault spec. Cached here because a replay hit never rebuilds the
    #: engine (and the recording key covers the fault spec, so a hit is
    #: guaranteed to describe the same churn).
    fault_summary: dict | None = None


class SweepReplayCache:
    """Two-level exact-match cache shared across a sweep's runners.

    One instance is passed to every
    :class:`~repro.harness.runner.ExperimentRunner` of a sweep; runners
    consult it before training (recordings) and before each per-link
    simulator replay (simulations).
    """

    def __init__(self) -> None:
        self._recordings: dict[RecordingKey, RecordedTraining] = {}
        self._simulations: dict[Hashable, Any] = {}
        self._timelines: dict[Hashable, Any] = {}
        self._extracted: set[RecordingKey] = set()
        self.recording_hits = 0
        self.recording_misses = 0
        self.simulation_hits = 0
        self.simulation_misses = 0
        self.extraction_hits = 0
        self.extraction_misses = 0

    # -- recordings --------------------------------------------------------

    def recording(self, key: RecordingKey) -> RecordedTraining | None:
        """Cached training recording, or ``None`` (counts a hit/miss)."""
        entry = self._recordings.get(key)
        if entry is None:
            self.recording_misses += 1
        else:
            self.recording_hits += 1
        return entry

    def store_recording(self, key: RecordingKey, rec: RecordedTraining) -> None:
        self._recordings[key] = rec

    # -- simulations -------------------------------------------------------

    def simulation(self, key: Hashable) -> Any | None:
        """Cached simulator output, or ``None`` (counts a hit/miss)."""
        entry = self._simulations.get(key)
        if entry is None:
            self.simulation_misses += 1
        else:
            self.simulation_hits += 1
        return entry

    def store_simulation(self, key: Hashable, sim: Any) -> None:
        self._simulations[key] = sim

    # -- extraction --------------------------------------------------------

    def prepare_extraction(self, key: RecordingKey, steps) -> None:
        """Warm a recording's replay artifacts once per :class:`RecordingKey`.

        Extraction (each skeleton's record batch, see
        :func:`~repro.netsim.vector.warm_extraction`) depends only on the
        recording, never on the link or time model: the first caller
        extracts (a miss), every later timeline config replays warm (a
        hit). The batches ride the recording's skeletons, so this set only
        tracks which recordings already paid.
        """
        if key in self._extracted:
            self.extraction_hits += 1
            return
        from repro.netsim.vector import warm_extraction

        warm_extraction(steps)
        self._extracted.add(key)
        self.extraction_misses += 1

    # -- timelines ---------------------------------------------------------

    def timeline(self, key: Hashable) -> Any | None:
        """Cached backward timeline for one model, profiled batch and
        clock: sweep points must share a measured profile for their
        simulated timings to be comparable, and need only one modeled one."""
        return self._timelines.get(key)

    def store_timeline(self, key: Hashable, timeline: Any) -> None:
        self._timelines[key] = timeline

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Hit/miss counters for sweep drivers' logs and tests."""
        return {
            "recording_hits": self.recording_hits,
            "recording_misses": self.recording_misses,
            "simulation_hits": self.simulation_hits,
            "simulation_misses": self.simulation_misses,
            "extraction_hits": self.extraction_hits,
            "extraction_misses": self.extraction_misses,
            "recordings": len(self._recordings),
            "simulations": len(self._simulations),
            "timelines": len(self._timelines),
        }

    def __len__(self) -> int:
        return len(self._recordings)
