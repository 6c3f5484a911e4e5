"""Regeneration of the paper's tables.

* :func:`table1` — speedup over the 32-bit float baseline at 10 Mbps,
  100 Mbps, and 1 Gbps plus final test accuracy (paper Table 1).
* :func:`table2` — average traffic compression of 3LC for varied sparsity
  multipliers, with and without zero-run encoding (paper Table 2).

Both return structured rows and a formatted text table; the CLI prints
the text and the claims ledger reads the rows (``table1.*``, ``table2.*``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.registry import TABLE1_SCHEMES
from repro.harness.runner import ExperimentRunner, RunResult
from repro.utils.format import format_table

__all__ = [
    "Table1Row",
    "Table2Row",
    "table1",
    "table2",
    "TABLE2_SCHEMES",
]

BASELINE = "32-bit float"

#: 3LC variants of Table 2, in paper order (no-ZRE first).
TABLE2_SCHEMES: tuple[str, ...] = (
    "3LC (s=1.00, no ZRE)",
    "3LC (s=1.00)",
    "3LC (s=1.50)",
    "3LC (s=1.75)",
    "3LC (s=1.90)",
)


@dataclass(frozen=True)
class Table1Row:
    """One design's speedups and accuracy (paper Table 1)."""

    scheme: str
    speedup_10mbps: float
    speedup_100mbps: float
    speedup_1gbps: float
    accuracy: float
    accuracy_difference: float
    #: Mean wire megabytes per step — measured, not modelled; the traffic
    #: half of the paper's cost story.
    wire_mb_per_step: float = 0.0
    #: Mean physical wire frames per step (shared pulls counted once per
    #: subscriber). Fused wire plans shrink this without moving bytes;
    #: the per-frame protocol overhead the time model charges scales
    #: with it.
    frames_per_step: float = 0.0
    #: Simulator-measured overlap fraction at 10 Mbps (None for analytic
    #: runs using the calibrated constant).
    achieved_overlap: float | None = None
    #: Mean per-step traffic split of hierarchical runs, in megabytes
    #: (None for flat topologies): bytes that stayed on rack-local links
    #: vs. bytes that crossed the scarce rack uplinks — the column pair
    #: that shows where compression actually pays.
    intra_rack_mb: float | None = None
    cross_rack_mb: float | None = None


@dataclass(frozen=True)
class Table2Row:
    """One 3LC variant's traffic statistics (paper Table 2)."""

    scheme: str
    compression_ratio: float
    bits_per_value: float


def table1(
    runner: ExperimentRunner, schemes: tuple[str, ...] = TABLE1_SCHEMES
) -> tuple[list[Table1Row], str]:
    """Regenerate Table 1: per-link speedups and test accuracy.

    Speedup at a link is the ratio of modelled mean per-step times
    (baseline / scheme) — identical to the paper's training-time ratio
    because both runs execute the same number of steps.
    """
    if BASELINE not in schemes:
        raise ValueError(f"schemes must include the {BASELINE!r} baseline")
    results = {name: runner.run(name, 1.0) for name in schemes}
    base = results[BASELINE]
    rows = []
    for name in schemes:
        result = results[name]
        meter = result.traffic
        hierarchical = meter.total_cross_rack_bytes > 0
        steps = max(1, len(meter.steps))
        rows.append(
            Table1Row(
                scheme=name,
                speedup_10mbps=_speedup(base, result, "10Mbps"),
                speedup_100mbps=_speedup(base, result, "100Mbps"),
                speedup_1gbps=_speedup(base, result, "1Gbps"),
                accuracy=result.final_accuracy,
                accuracy_difference=result.final_accuracy - base.final_accuracy,
                wire_mb_per_step=meter.total_wire_bytes / steps / 1e6,
                frames_per_step=sum(s.frames for s in meter.steps) / steps,
                achieved_overlap=(
                    result.achieved_overlap["10Mbps"]
                    if result.achieved_overlap is not None
                    else None
                ),
                intra_rack_mb=(
                    meter.total_intra_rack_bytes / steps / 1e6
                    if hierarchical
                    else None
                ),
                cross_rack_mb=(
                    meter.total_cross_rack_bytes / steps / 1e6
                    if hierarchical
                    else None
                ),
            )
        )
    simulated = any(r.achieved_overlap is not None for r in rows)
    event_driven = any(
        results[name].staleness_distribution is not None for name in schemes
    )
    tiered = any(r.cross_rack_mb is not None for r in rows)
    headers = [
        "Design", "@10Mbps", "@100Mbps", "@1Gbps", "Accuracy(%)", "Diff",
        "MB/step", "Frames/step",
    ]
    if simulated:
        headers.append("Ovl@10M")
    if tiered:
        headers.extend(["Intra(MB/step)", "Cross(MB/step)"])
    body = []
    for r in rows:
        cells = [
            r.scheme,
            f"{r.speedup_10mbps:.2f}x",
            f"{r.speedup_100mbps:.2f}x",
            f"{r.speedup_1gbps:.2f}x",
            f"{100 * r.accuracy:.2f}",
            f"{100 * r.accuracy_difference:+.2f}",
            f"{r.wire_mb_per_step:.3f}",
            f"{r.frames_per_step:.0f}",
        ]
        if simulated:
            cells.append(
                f"{r.achieved_overlap:.2f}" if r.achieved_overlap is not None else "-"
            )
        if tiered:
            cells.append(
                f"{r.intra_rack_mb:.3f}" if r.intra_rack_mb is not None else "-"
            )
            cells.append(
                f"{r.cross_rack_mb:.3f}" if r.cross_rack_mb is not None else "-"
            )
        body.append(cells)
    title = "Table 1: speedup over baseline and test accuracy (standard steps)"
    if event_driven:
        # Async/SSP quanta are updates, not global steps; the overlap
        # column is the measured hidden-communication fraction from the
        # event-driven replay, not the calibrated constant.
        title += " [simulated event-driven updates]"
    elif simulated:
        title += " [simulated per-layer overlap]"
    text = format_table(headers, body, title=title)
    if runner.replay_cache is not None:
        # Footer: how much of the sweep the replay cache absorbed — the
        # reuse a tuner or a sweep banks on.
        stats = runner.replay_cache.stats()
        text += (
            "\nReplay cache: "
            f"{stats['recordings']} recordings "
            f"({stats['recording_hits']} hits), "
            f"{stats['extraction_hits']}/"
            f"{stats['extraction_hits'] + stats['extraction_misses']} "
            "warm extractions"
        )
    return rows, text


def _speedup(base: RunResult, result: RunResult, link_name: str) -> float:
    return base.mean_step_seconds[link_name] / result.mean_step_seconds[link_name]


def table2(runner: ExperimentRunner) -> tuple[list[Table2Row], str]:
    """Regenerate Table 2: average 3LC traffic compression vs. ``s``."""
    rows = []
    for name in TABLE2_SCHEMES:
        result = runner.run(name, 1.0)
        rows.append(
            Table2Row(
                scheme=name,
                compression_ratio=result.compression_ratio,
                bits_per_value=result.bits_per_value,
            )
        )
    text = format_table(
        ["Design", "Compression ratio", "bits per state change"],
        [
            [r.scheme, f"{r.compression_ratio:.1f}x", f"{r.bits_per_value:.3f}"]
            for r in rows
        ],
        title="Table 2: average traffic compression of 3LC (standard steps)",
    )
    return rows, text
