"""Experiment runner: trains one (scheme, step-budget) cell and caches it.

The paper's measurement methodology (§5.2) runs each configuration as a
separate experiment because the cosine schedule depends on the total step
budget. :class:`ExperimentRunner` does the same: ``run(scheme, fraction)``
trains a fresh cluster for ``fraction`` of the standard steps, evaluates
the global model, and derives per-link timing from measured traffic through
the step-time model. Results are cached so the Table 1 and Figure 4–9
generators can share runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compression.registry import make_compressor
from repro.exchange.engine import EvalResult, ExchangeEngine
from repro.exchange.clock import modeled_timeline
from repro.harness.config import ExperimentConfig
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    RecordedTraining,
    RecordingKey,
    SweepReplayCache,
    link_model_for,
)
from repro.network.timing import StepTimeModel
from repro.network.bandwidth import LINKS
from repro.network.traffic import TrafficMeter
from repro.nn.stats import BackwardTimeline, profile_backward
from repro.telemetry import Telemetry, trace_training
from repro.utils.logging import get_logger

__all__ = ["RunResult", "ExperimentRunner"]

logger = get_logger("repro.harness.runner")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one training run.

    Attributes
    ----------
    scheme / fraction / steps:
        What was run.
    final_accuracy / final_loss:
        Global-model test metrics at the end of training.
    eval_curve:
        Periodic evaluations (Figure 7's accuracy curve).
    loss_curve:
        Per-step mean training loss across workers (Figure 7, left).
    compression_ratio / bits_per_value:
        End-to-end traffic statistics (Table 2).
    mean_step_seconds / total_seconds:
        Modelled per-link timing (Table 1, Figures 4–6). Keyed by link
        name ("10Mbps", "100Mbps", "1Gbps"). With ``config.sim_overlap``
        these come from the discrete-event simulator instead of the
        analytic closed form.
    traffic:
        Full per-step traffic log (Figure 9).
    achieved_overlap:
        Per-link *measured* overlap fraction from the simulator, and
        ``None`` — never 0.0 — when the simulator didn't run: downstream
        consumers (Table 1's ``Ovl`` column, results archives) use the
        ``None`` to tell "not simulated" apart from "simulated, nothing
        hid". For BSP runs this is the compute-normalized per-layer
        fraction; for event-driven runs it is the measured share of
        link-busy time that ran under some worker's compute.
    per_worker_throughput / staleness_distribution / link_utilization:
        Event-driven (async/SSP) simulator reports, ``None`` otherwise:
        committed updates per simulated second per worker (keyed by link
        then worker id; under the hierarchical topology the scheduling
        unit — and therefore the "worker" key — is a rack), the observed
        effective-staleness histogram (global model versions between pull
        and commit — link independent), and per-link busy fractions.
        ``link_utilization`` is also populated for simulated *BSP* runs
        (mean per-link busy fraction over steps), which is how the
        hierarchical topology reports per-tier utilization.
    telemetry_summary:
        ``Telemetry.summary()`` rollup (counter totals, gauge values,
        histogram stats, per-track span counts/busy seconds) when the run
        executed with ``config.telemetry``; ``None`` otherwise. A plain
        JSON-ready dict so it round-trips through ``results_io``.
    fault_summary:
        Churn rollup from the engine's fault-injection layer (crash /
        restart / departure / flap / rejoin counts, resync bytes,
        degraded steps) when the run had a ``config.fault`` spec;
        ``None`` otherwise — including for legacy archives.
    """

    scheme: str
    fraction: float
    steps: int
    final_accuracy: float
    final_loss: float
    eval_curve: tuple[EvalResult, ...]
    loss_curve: tuple[float, ...]
    compression_ratio: float
    bits_per_value: float
    mean_step_seconds: dict[str, float]
    total_seconds: dict[str, float]
    traffic: TrafficMeter
    achieved_overlap: dict[str, float] | None = None
    per_worker_throughput: dict[str, dict[int, float]] | None = None
    staleness_distribution: dict[int, int] | None = None
    link_utilization: dict[str, dict[str, float]] | None = None
    telemetry_summary: dict | None = None
    fault_summary: dict | None = None

    def total_minutes(self, link_name: str) -> float:
        return self.total_seconds[link_name] / 60.0


class ExperimentRunner:
    """Caches training runs for one :class:`ExperimentConfig`.

    Pass one shared :class:`~repro.netsim.SweepReplayCache` to every
    runner of a parameter sweep to enable **incremental replay**: sweep
    points that differ only in network-model knobs (link rate, cross-rack
    bandwidth fraction, cross-rack RTT, time model) reuse the recorded
    transmission plans and traffic accounting of the first point instead
    of re-training, and re-run only the (vectorized) simulator. Any knob
    that can change what the engine records — scheme, step budget,
    topology, sync mode, staleness, fusion settings including bucket
    capacity, cluster shape, seeds — is part of the recording key and
    invalidates the cache.
    """

    #: Simulation-only knobs canonicalized out of the recording key:
    #: they change per-link timing, never the recorded plans.
    _SIM_ONLY_CANONICAL = {
        "cross_bw_fraction": 1.0,
        "cross_rtt_seconds": 0.0,
        "time_model": StepTimeModel(),
        # Telemetry observes a run; it never changes what gets recorded.
        "telemetry": False,
        # Service order within a simulated wave; recordings are shared
        # across priorities (the plan tuner's cache-efficiency anchor).
        "transmission_priority": "registration",
    }

    def __init__(
        self,
        config: ExperimentConfig,
        replay_cache: SweepReplayCache | None = None,
    ):
        self.config = config
        self.replay_cache = replay_cache
        self._cache: dict[tuple[str, float], RunResult] = {}
        self._dataset = config.dataset()
        self._timeline: BackwardTimeline | None = None
        #: With ``config.telemetry``, one labeled
        #: :class:`~repro.telemetry.Telemetry` session per executed run,
        #: in run order — exporters (``--trace-out`` / ``--metrics-out``)
        #: consume this list after the command finishes.
        self.telemetry_sessions: list[tuple[str, Telemetry]] = []

    def _recording_key(self, scheme_name: str, steps: int) -> RecordingKey:
        """Invalidation key for this config's training recording.

        The frozen config itself is the fingerprint, with the
        simulation-only knobs replaced by fixed canonical values so sweep
        points differing only in those knobs share one recording.
        """
        canonical = replace(self.config, **self._SIM_ONLY_CANONICAL)
        return RecordingKey(scheme_name, steps, canonical)

    def backward_timeline(self) -> BackwardTimeline:
        """Per-layer backward profile of the experiment's model (cached).

        The timeline depends only on the model, the profiled batch and
        the clock, so one profile serves every scheme and budget the
        runner simulates. With a sweep replay cache it is shared *across*
        runners as well, keyed on exactly those: a measured profile must
        be reused for sweep points' simulated timings to be comparable,
        and a plan search profiles once, not once per candidate.
        """
        if self._timeline is None:
            if self.replay_cache is not None:
                key = self._timeline_key()
                timeline = self.replay_cache.timeline(key)
                if timeline is None:
                    timeline = self._profile_timeline()
                    self.replay_cache.store_timeline(key, timeline)
                self._timeline = timeline
            else:
                self._timeline = self._profile_timeline()
        return self._timeline

    def _timeline_key(self) -> tuple:
        """What a backward timeline depends on, and nothing else."""
        config = self.config
        return (
            config.model_family,
            config.depth,
            config.base_width,
            config.model_seed,
            self._dataset.spec,
            config.batch_size,
            config.clock,
        )

    def _profile_timeline(self) -> BackwardTimeline:
        config = self.config
        model = config.model_factory()()
        images, labels = self._dataset.train_shard(0, config.batch_size)
        if not config.clock.modeled:
            return profile_backward(model, images, labels)
        # Only the layer structure of the pass is kept: one repeat is enough.
        structure = profile_backward(model, images, labels, repeats=1)
        return modeled_timeline(
            structure, {p.name: p.size for p in model.parameters()}
        )

    def _link_model(self, link):
        """The simulated topology's link model at one swept link rate."""
        config = self.config
        return link_model_for(
            config.topology,
            link,
            num_shards=config.num_shards,
            num_workers=config.num_workers,
            racks=config.racks,
            rack_size=config.rack_size,
            cross_bw_fraction=config.cross_bw_fraction,
            cross_rtt_seconds=config.cross_rtt_seconds,
        )

    def run(self, scheme_name: str, fraction: float = 1.0) -> RunResult:
        """Train (or fetch the cached run of) one scheme at one budget."""
        key = (scheme_name, round(float(fraction), 6))
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        config = self.config
        steps = config.steps_for_fraction(fraction)
        rec_key = None
        recording = None
        if self.replay_cache is not None:
            rec_key = self._recording_key(scheme_name, steps)
            recording = self.replay_cache.recording(rec_key)
        if recording is None:
            scheme = make_compressor(scheme_name, seed=config.scheme_seed)
            # The default single-server BSP configuration reproduces the
            # seed trainer byte-for-byte (tests/exchange/test_engine_parity);
            # the topology / sync_mode knobs swap the exchange plan without
            # touching the measurement protocol.
            cluster = ExchangeEngine(
                config.model_factory(),
                self._dataset,
                scheme,
                config.schedule(steps),
                config.engine_config(),
            )
            eval_every = max(1, steps // max(1, config.eval_points))
            logger.info(
                "running %s at %.0f%% budget (%d steps)",
                scheme_name,
                100 * fraction,
                steps,
            )
            evals = cluster.train(
                steps, eval_every=eval_every, test_size=config.eval_size
            )
            if not evals or evals[-1].step != cluster.global_step:
                evals.append(cluster.evaluate(test_size=config.eval_size))
            final = evals[-1]
            recording = RecordedTraining(
                plans=tuple(cluster.transmissions or cluster.update_events),
                evals=tuple(evals),
                final=final,
                step_logs=tuple(cluster.step_logs),
                stages=cluster.service.STAGES,
                traffic=cluster.traffic,
                synchronous=cluster.synchronous,
                fault_summary=cluster.fault_summary(),
            )
            if self.replay_cache is not None:
                self.replay_cache.store_recording(rec_key, recording)
        else:
            logger.info(
                "replaying cached recording for %s (%d steps)", scheme_name, steps
            )
        final = recording.final

        meter = recording.traffic
        tel: Telemetry | None = None
        if config.telemetry:
            # A hit traces its recording exactly as the cold run did.
            tel = Telemetry()
            self.telemetry_sessions.append(
                (f"{scheme_name} @{int(round(100 * fraction))}%", tel)
            )
            trace_training(
                tel, scheme_name, recording.step_logs, meter.steps, recording.stages
            )
        achieved: dict[str, float] | None = None
        per_worker: dict[str, dict[int, float]] | None = None
        staleness_distribution: dict[int, int] | None = None
        link_utilization: dict[str, dict[str, float]] | None = None
        if config.sim_overlap:
            # Honest per-link timing: replay the recorded plans through the
            # discrete-event simulator — each step's transmissions for BSP,
            # the per-update event stream (virtual clocks, FIFO links,
            # blocking SSP barriers) for async/SSP, where "step" is the
            # scheduling quantum, one update.
            timeline = self.backward_timeline()
            synchronous = recording.synchronous
            if self.replay_cache is not None and synchronous:
                # Warm the recording's replay artifacts once per recording
                # key: every link config below (and every later sweep or
                # tuner point sharing the recording) then replays warm.
                self.replay_cache.prepare_extraction(rec_key, recording.plans)
            mean_step, total, achieved, link_utilization = {}, {}, {}, {}
            per_worker = None if synchronous else {}
            staleness = config.staleness if config.sync_mode == "ssp" else None
            for name, link in LINKS.items():
                replay = dict(
                    overlap=True,
                    tracer=tel.tracer if tel is not None else None,
                    trace_group=f"sim:{name}",
                    priority=config.transmission_priority,
                )
                if synchronous:
                    # Tables consume only the overlapped times; skip the
                    # serialized-baseline replay (it would double sim cost).
                    sim = NetworkSimulator(
                        timeline,
                        self._link_model(link),
                        config.time_model,
                        **replay,
                    ).simulate_run(recording.plans)
                    mean_step[name] = sim.mean_step_seconds
                    achieved[name] = sim.mean_overlap
                    link_utilization[name] = sim.mean_link_utilization
                else:
                    sim = EventDrivenSimulator(
                        timeline,
                        self._link_model(link),
                        config.time_model,
                        staleness=staleness,
                        **replay,
                    ).simulate(recording.plans)
                    mean_step[name] = sim.mean_update_seconds
                    achieved[name] = sim.achieved_overlap
                    link_utilization[name] = sim.link_utilization
                    per_worker[name] = sim.per_worker_throughput
                    if staleness_distribution is None:
                        # Observed staleness comes from the recording; it
                        # does not depend on the link rate.
                        staleness_distribution = sim.staleness_histogram
                total[name] = sim.total_seconds
                if self.replay_cache is not None:
                    self.replay_cache.simulation_misses += 1
        else:
            mean_step = {
                name: config.time_model.mean_step_seconds(meter, link)
                for name, link in LINKS.items()
            }
            total = {
                name: config.time_model.total_seconds(meter, link)
                for name, link in LINKS.items()
            }
        result = RunResult(
            scheme=scheme_name,
            fraction=fraction,
            steps=steps,
            final_accuracy=final.test_accuracy,
            final_loss=final.test_loss,
            eval_curve=recording.evals,
            loss_curve=tuple(log.train_loss for log in recording.step_logs),
            compression_ratio=meter.compression_ratio(),
            bits_per_value=meter.average_bits_per_value(),
            mean_step_seconds=mean_step,
            total_seconds=total,
            traffic=meter,
            achieved_overlap=achieved,
            per_worker_throughput=per_worker,
            staleness_distribution=staleness_distribution,
            link_utilization=link_utilization,
            telemetry_summary=tel.summary() if tel is not None else None,
            fault_summary=recording.fault_summary,
        )
        self._cache[key] = result
        logger.info(
            "%s: accuracy %.2f%%, ratio %.1fx, %.3g s/step @10Mbps",
            scheme_name,
            100 * result.final_accuracy,
            result.compression_ratio,
            result.mean_step_seconds["10Mbps"],
        )
        return result
