"""Step-time model and the paper's training-time extrapolation.

The paper measures full training at 1 Gbps and *predicts* training time at
10/100 Mbps by scaling with per-step time ratios (§5.2):
``t_link = t_full * s_link / s_full``. We implement both that estimator
(:func:`extrapolate_training_time`) and the underlying per-step model.

Per-step wall-clock at link rate ``R``::

    comm   = 8 * (push_bytes + pull_bytes_total) / R      (server NIC is
             the shared bottleneck: it receives every push and sends the
             shared pull to every worker)
    hidden = overlap * compute                            (fine-grained
             per-layer barriers overlap transfers with computation, §2.1)
    step   = compute + codec + max(0, comm - hidden)
             + per_message_overhead * wire_frames

``compute`` and ``codec`` are *measured* from the NumPy substrate; only the
transfer term is modelled. ``overlap`` defaults to 0.9: modern frameworks
hide most but not all communication behind the backward pass (the paper's
baseline is TensorFlow's already-optimized SyncReplicasOptimizer). The
discrete-event simulator in :mod:`repro.netsim` replaces the constant with
a replayed per-layer timeline; its serialized schedule reproduces this
closed form at ``overlap=0`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.bandwidth import LinkSpec
from repro.network.traffic import StepTraffic, TrafficMeter

__all__ = ["StepTimeModel", "extrapolate_training_time"]


@dataclass(frozen=True)
class StepTimeModel:
    """Analytic per-step wall-clock model.

    Parameters
    ----------
    overlap:
        Fraction of compute time under which communication can hide
        (0 = fully serialized, 1 = perfect overlap).
    per_message_overhead:
        Protocol overhead in seconds *per wire frame* (header parse, RPC
        dispatch, per-message bookkeeping), charged for every frame the
        traffic meter counted — so a fused run, which moves the same bytes
        in far fewer frames, pays proportionally less. Keeps 1 Gbps
        speedups bounded, as in the paper where even "free" compression
        cannot exceed ~1.55×. Steps recorded without frame counts pay no
        overhead.
    compute_scale / codec_scale:
        Hardware-substitution factors: the paper's workers are
        GPUs, ours is NumPy on CPU, so measured compute seconds are scaled
        down to restore the paper's communication-to-computation ratio;
        codec seconds (CPU-bound in both settings) get their own factor.
        Defaults of 1.0 report raw measurements; the harness installs
        fixed values (ARCHITECTURE.md, "The nn substrate and the compute
        scale").
    """

    overlap: float = 0.9
    per_message_overhead: float = 25e-6
    compute_scale: float = 1.0
    codec_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.overlap <= 1.0):
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap!r}")
        if not self.per_message_overhead >= 0:
            raise ValueError(
                f"per_message_overhead must be >= 0, got "
                f"{self.per_message_overhead!r}"
            )
        if not self.compute_scale > 0 or not self.codec_scale > 0:
            raise ValueError(
                "hardware scales must be positive, got "
                f"compute_scale={self.compute_scale!r}, "
                f"codec_scale={self.codec_scale!r}"
            )

    def comm_seconds(self, step: StepTraffic, link: LinkSpec) -> float:
        """Serialized transfer time through the server NIC."""
        return link.transfer_seconds(step.wire_bytes)

    def overhead_seconds(self, step: StepTraffic) -> float:
        """Per-frame protocol overhead for one step's wire frames."""
        return self.per_message_overhead * step.frames

    def step_seconds(self, step: StepTraffic, link: LinkSpec) -> float:
        """Modelled wall-clock for one training step."""
        compute = self.compute_scale * step.compute_seconds
        codec = self.codec_scale * step.codec_seconds
        comm = self.comm_seconds(step, link)
        hidden = self.overlap * compute
        exposed = max(0.0, comm - hidden)
        return compute + codec + exposed + self.overhead_seconds(step)

    def mean_step_seconds(self, meter: TrafficMeter, link: LinkSpec) -> float:
        """Average modelled step time over a recorded run."""
        if not meter.steps:
            return 0.0
        return sum(self.step_seconds(s, link) for s in meter.steps) / len(meter.steps)

    def total_seconds(self, meter: TrafficMeter, link: LinkSpec) -> float:
        """Modelled wall-clock for the whole recorded run."""
        return sum(self.step_seconds(s, link) for s in meter.steps)


def extrapolate_training_time(
    t_full: float, s_full: float, s_short: float
) -> float:
    """The paper's estimator: ``t_link = t_full * s_short / s_full``.

    Parameters
    ----------
    t_full:
        Total training time measured in the full run (1 Gbps).
    s_full:
        Per-step time in the full run.
    s_short:
        Per-step time in the accelerated measurement on the target link.
    """
    if t_full < 0 or s_short < 0:
        raise ValueError("times must be non-negative")
    if s_full <= 0:
        raise ValueError("s_full must be positive")
    return t_full * s_short / s_full
