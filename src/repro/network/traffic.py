"""Per-step traffic accounting for the parameter-server cluster.

Records, for every training step, the wire bytes of gradient pushes and
model-delta pulls alongside the float32-equivalent baseline, giving exact
compression ratios (Table 2) and per-step bits-per-state-change series
(Figure 9) without any modelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepTraffic", "TrafficMeter"]

FLOAT32_BYTES = 4


@dataclass
class StepTraffic:
    """Wire accounting for one BSP training step.

    Attributes
    ----------
    push_bytes:
        Compressed gradient bytes summed over all workers and tensors
        (what the server's downlink carries).
    pull_bytes_shared:
        Compressed model-delta bytes produced once by the server (3LC's
        shared pull compression).
    pull_fanout:
        Number of workers the shared pull is sent to; the server uplink
        carries ``pull_bytes_shared * pull_fanout``.
    push_elements / pull_elements:
        State-change element counts behind those bytes (for bits/value).
    model_elements:
        Total parameter-element count of the model. The float32 baseline
        transmits the full model in both directions every step, so this —
        not the transmitted-element count — anchors compression ratios
        (otherwise schemes that *skip* transmissions, like N-local-steps,
        would show no traffic reduction).
    num_workers:
        Worker count (the baseline pushes one gradient set per worker).
    compute_seconds:
        Max per-worker forward+backward time this step (workers run in
        parallel in the modelled cluster).
    codec_seconds:
        Serialized compression/decompression CPU time on the critical path.
    """

    step: int
    push_bytes: int = 0
    pull_bytes_shared: int = 0
    pull_fanout: int = 0
    push_elements: int = 0
    pull_elements: int = 0
    model_elements: int = 0
    num_workers: int = 0
    compute_seconds: float = 0.0
    codec_seconds: float = 0.0
    # Accounting restricted to tensors that actually went through the lossy
    # codec (excludes the small-layer float32 bypass). Figure 9 plots these.
    push_bytes_main: int = 0
    push_elements_main: int = 0
    pull_bytes_main: int = 0
    pull_elements_main: int = 0
    #: Pushes discarded by a backup-worker barrier this step (§2.1).
    dropped_pushes: int = 0
    #: Wire frames transmitted this step (a fused bucket counts as one
    #: frame); the per-message header overhead fusion eliminates is
    #: proportional to these counts.
    push_messages: int = 0
    pull_messages: int = 0
    #: Two-tier byte split (hierarchical topology only; zero elsewhere):
    #: bytes that stayed on fast rack-local links (ring collectives plus
    #: the intra-rack re-broadcast of pulled deltas) vs. bytes that
    #: crossed the scarce rack uplinks (compressed rack aggregates up,
    #: one shared-delta copy per rack down). When set, they partition
    #: ``wire_bytes`` exactly — Table 1's intra/cross columns sum these.
    intra_rack_bytes: int = 0
    cross_rack_bytes: int = 0
    #: Full-model float32 state transferred to workers/racks rejoining
    #: after an injected fault this step (already fan-out inclusive — NOT
    #: multiplied by ``pull_fanout``). Part of ``wire_bytes`` but outside
    #: the compressed push/pull streams.
    resync_bytes: int = 0

    @property
    def pull_bytes_total(self) -> int:
        return self.pull_bytes_shared * self.pull_fanout

    @property
    def frames(self) -> int:
        """Physical wire frames this step — what the per-frame overhead
        charges.

        A shared pull is *compressed* once (``pull_messages`` counts it
        once, mirroring the byte fields) but transmitted to every
        subscribed worker, so each counted pull message crosses the wire
        ``pull_fanout`` times.
        """
        return self.push_messages + self.pull_messages * self.pull_fanout

    @property
    def wire_bytes(self) -> int:
        """Bytes crossing the server NIC this step (in + out)."""
        return self.push_bytes + self.pull_bytes_total + self.resync_bytes

    @property
    def baseline_bytes(self) -> int:
        """Bytes the 32-bit float baseline would move this step.

        Full model per worker inbound (pushes) plus full model per worker
        outbound (pulls), uncompressed.
        """
        return FLOAT32_BYTES * self.model_elements * (
            self.num_workers + self.pull_fanout
        )

    def push_bits_per_value(self) -> float:
        """Wire bits per compressed push value (bypass excluded), as in
        Figure 9's "compressed size per state change"."""
        if self.push_elements_main == 0:
            return 0.0
        return 8.0 * self.push_bytes_main / self.push_elements_main

    def pull_bits_per_value(self) -> float:
        """Wire bits per compressed pull value (bypass excluded)."""
        if self.pull_elements_main == 0:
            return 0.0
        return 8.0 * self.pull_bytes_main / self.pull_elements_main


@dataclass
class TrafficMeter:
    """Accumulates :class:`StepTraffic` records over a training run."""

    steps: list[StepTraffic] = field(default_factory=list)

    def record(self, step_traffic: StepTraffic) -> None:
        self.steps.append(step_traffic)

    @property
    def total_wire_bytes(self) -> int:
        return sum(s.wire_bytes for s in self.steps)

    @property
    def total_intra_rack_bytes(self) -> int:
        """Bytes that stayed on rack-local links (hierarchical runs)."""
        return sum(s.intra_rack_bytes for s in self.steps)

    @property
    def total_cross_rack_bytes(self) -> int:
        """Bytes that crossed rack uplinks (hierarchical runs)."""
        return sum(s.cross_rack_bytes for s in self.steps)

    @property
    def total_resync_bytes(self) -> int:
        """Full-model rejoin-resync bytes (fault-injected runs)."""
        return sum(s.resync_bytes for s in self.steps)

    @property
    def total_baseline_bytes(self) -> int:
        return sum(s.baseline_bytes for s in self.steps)

    def compression_ratio(self) -> float:
        """End-to-end traffic reduction vs. uncompressed float32."""
        wire = self.total_wire_bytes
        if wire == 0:
            return float("inf")
        return self.total_baseline_bytes / wire

    def average_bits_per_value(self) -> float:
        """Mean wire bits per baseline state-change value.

        Defined so that ``32 / compression_ratio == bits_per_value``,
        matching Table 2's accounting (e.g. ratio 39.4× ↔ 0.812 bits).
        """
        elements = sum(
            s.model_elements * (s.num_workers + s.pull_fanout) for s in self.steps
        )
        if elements == 0:
            return 0.0
        return 8.0 * self.total_wire_bytes / elements

    def mean_compute_seconds(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.compute_seconds for s in self.steps) / len(self.steps)

    def mean_codec_seconds(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.codec_seconds for s in self.steps) / len(self.steps)

    @property
    def total_messages(self) -> int:
        """Total wire frames over the run (fused buckets count once)."""
        return sum(s.push_messages + s.pull_messages for s in self.steps)
