"""Incremental sweep replay: reuse recordings across sweep points.

A parameter sweep (bandwidth grid, cross-rack RTT curve, core
oversubscription scan) varies knobs that only the *network model* sees —
training dynamics, and therefore the recorded transmission plan, are
bit-identical at every point. Re-training the cluster per point makes
sweep cost scale with training time instead of simulator time, which the
vectorized event core just made cheap.

:class:`SweepReplayCache` breaks that coupling by caching **recordings**
under an exact-match :class:`RecordingKey`: the outcome of one training
run — transmission plans, traffic accounting, and evaluation metrics.
The key's ``fingerprint`` must capture every knob that can change what
the engine records: scheme, step budget, topology, sync mode and
staleness bound, fusion plan (including bucket capacity), cluster shape,
and all seeds. Harness code builds the fingerprint by *canonicalizing*
the simulation-only knobs of its config (link rate, cross-rack bandwidth
fraction and RTT, time model, transmission priority) so that sweep
points differing only in those knobs map to the same key — a hit skips
training and replays the recorded plans through the simulator.

Simulator output is never stored: every sweep point re-simulates its
recording (a replay is cheap, and a traced one must emit its spans), so
a hit's result is bit-identical to a cold run's by construction — but
for telemetry: a hit trains nothing, so it traces its replay alone.
Beside the recordings the cache shares backward timelines and tracks
which recordings already paid their replay extraction. Counters
(``hits`` / ``misses``) make sweep drivers' savings observable.
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

    #: The recorded plans: per-step ``StepTransmissions`` for a
    #: synchronous run, per-update ``UpdateTransmissions`` otherwise.
    plans: tuple
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
    """Exact-match recording cache shared across a sweep's runners.

    One instance is passed to every
    :class:`~repro.harness.runner.ExperimentRunner` of a sweep; runners
    consult it before training and count each per-link replay on it.
    """

    def __init__(self) -> None:
        self._recordings: dict[RecordingKey, RecordedTraining] = {}
        self._timelines: dict[Hashable, Any] = {}
        self._extracted: set[RecordingKey] = set()
        self.recording_hits = 0
        self.recording_misses = 0
        # Read by perf/workloads/plan_search.py (``tuner.sim_replays`` and
        # ``netsim.replay.simulation_hit_ratio``): no simulation is stored,
        # so every per-link replay counts as a miss.
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
            "timelines": len(self._timelines),
        }

    def __len__(self) -> int:
        return len(self._recordings)
