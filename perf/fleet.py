"""Deterministic hier fleet synthesizer (perf/'s own copy).

Same generator as ``benchmarks/bench_simperf.py`` — copied, not imported,
because ROADMAP item 1 may delete that script and the benchmark must not
depend on files outside ``perf/``. Produces what the hierarchical engine
records, without training: per-worker gradient pushes on their rack
channel, one cross-rack aggregate per rack depending on its workers'
pushes, and a down/bcast pull pipeline per rack, with seeded byte, frame
and compute variation so link contention and dependency waves are
non-trivial.
"""

from __future__ import annotations

import numpy as np

from repro.netsim import StepTransmissions, TransmissionRecord
from repro.network.timing import StepTimeModel
from repro.nn.stats import BackwardTimeline, LayerTiming

__all__ = ["TIME_MODEL", "fleet_timeline", "synthesize_fleet_run", "event_count"]

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=1.0, codec_scale=1.0
)

_LAYERS = 8


def fleet_timeline(seed: int) -> BackwardTimeline:
    """Synthetic per-layer backward profile."""
    rng = np.random.default_rng(seed)
    seconds = rng.uniform(0.5, 2.0, size=_LAYERS)
    return BackwardTimeline(
        tuple(
            LayerTiming(f"layer{i}", float(seconds[i]), (f"p{i}",))
            for i in range(_LAYERS)
        )
    )


def synthesize_fleet_run(
    *, workers: int, racks: int, steps: int, seed: int
) -> tuple[StepTransmissions, ...]:
    """Hier-shaped transmission plans for ``steps`` BSP steps."""
    if workers % racks:
        raise ValueError(f"{workers} workers do not divide into {racks} racks")
    rack_size = workers // racks
    rng = np.random.default_rng(seed)
    plans = []
    for step in range(steps):
        records = []
        for rack in range(racks):
            for slot in range(rack_size):
                wid = rack * rack_size + slot
                records.append(
                    TransmissionRecord(
                        name=f"w{wid}:grad",
                        params=(f"p{wid % _LAYERS}",),
                        wire_bytes=int(rng.integers(2_000, 40_000)),
                        elements=int(rng.integers(5_000, 100_000)),
                        route=f"rack{rack}",
                        worker=wid,
                        phase="push",
                        frames=1 + wid % 3,
                    )
                )
        for rack in range(racks):
            first = rack * rack_size
            records.append(
                TransmissionRecord(
                    name=f"agg{rack}",
                    params=(),
                    wire_bytes=int(rng.integers(20_000, 120_000)),
                    elements=int(rng.integers(50_000, 400_000)),
                    route=f"cross:rack{rack}",
                    worker=None,
                    phase="push",
                    frames=2,
                    depends_on=tuple(
                        f"w{wid}:grad" for wid in range(first, first + rack_size)
                    ),
                )
            )
        for rack in range(racks):
            records.append(
                TransmissionRecord(
                    name=f"down{rack}",
                    params=(),
                    wire_bytes=int(rng.integers(20_000, 120_000)),
                    elements=int(rng.integers(50_000, 400_000)),
                    route=f"cross:rack{rack}",
                    worker=None,
                    phase="pull",
                    frames=2,
                )
            )
            records.append(
                TransmissionRecord(
                    name=f"bcast{rack}",
                    params=(),
                    wire_bytes=int(rng.integers(10_000, 60_000)),
                    elements=int(rng.integers(50_000, 400_000)),
                    route=f"rack{rack}",
                    worker=None,
                    phase="pull",
                    frames=rack_size - 1,
                    depends_on=(f"down{rack}",),
                )
            )
        plans.append(
            StepTransmissions(
                step=step,
                compute_seconds=float(rng.uniform(0.04, 0.06)),
                push_compress_seconds=float(rng.uniform(0.001, 0.003)),
                server_decompress_seconds=float(rng.uniform(0.0005, 0.001)),
                pull_decompress_seconds=float(rng.uniform(0.0005, 0.001)),
                records=tuple(records),
            )
        )
    return tuple(plans)


def event_count(plans) -> int:
    return sum(len(step.records) for step in plans)
