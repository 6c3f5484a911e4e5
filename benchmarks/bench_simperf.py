#!/usr/bin/env python
"""Fleet-scale simulator performance: vectorized core vs scalar reference.

The netsim layer is the scoring oracle for every sweep, so its throughput
bounds how much configuration space the harness can explore. This benchmark
synthesizes fleet-scale hierarchical runs — a workers × racks × horizon
grid, no training involved — and replays them through both simulator cores:

* the NumPy-vectorized event core (the default), and
* the per-record scalar reference path (``vectorized=False``), measured on
  a capped step subset so the big configs stay tractable.

For every grid point it reports events/sec and wall-clock per path plus the
per-event speedup, asserts scalar/vector parity at 1e-9 on the measured
subset, and (full mode) asserts the ≥10× speedup target on the
1024-worker × 64-rack × 200-step config. ``--json`` writes the
``BENCH_simperf.json`` perf-trajectory baseline; ``--check`` fails if the
vectorized core's events/sec regressed more than 2× against the committed
baseline.

Run:  python benchmarks/bench_simperf.py [--smoke] [--check] [--json PATH]
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.netsim import NetworkSimulator, StepTransmissions, TransmissionRecord
from repro.netsim.links import hierarchical_links
from repro.network.bandwidth import LinkSpec
from repro.network.timing import StepTimeModel
from repro.nn.stats import BackwardTimeline, LayerTiming
from repro.utils.format import format_table

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_simperf.json"

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=1.0, codec_scale=1.0
)

#: The scaling grid. ``smoke`` rows run in CI; the full grid adds the
#: fleet-scale acceptance config (1024 workers × 64 racks × 200 steps).
GRID = (
    dict(workers=32, racks=4, steps=20, smoke=True),
    dict(workers=128, racks=8, steps=50, smoke=True),
    dict(workers=256, racks=16, steps=100, smoke=False),
    dict(workers=1024, racks=64, steps=200, smoke=False),
)

#: Scalar reference replays at most this many steps per config (its cost
#: is what this PR removed; measuring a subset keeps the grid tractable).
SCALAR_STEP_CAP = 8

#: Regression gate for ``--check``: fail when the vectorized core's
#: events/sec drops below baseline divided by this factor.
REGRESSION_FACTOR = 2.0

#: Full-mode acceptance: vector core at least this much faster per event
#: than the scalar reference on the fleet-scale config.
TARGET_SPEEDUP = 10.0

PARITY_TOL = 1e-9

_LAYERS = 8


def fleet_timeline(seed: int = 0) -> BackwardTimeline:
    """Synthetic per-layer backward profile (deterministic)."""
    rng = np.random.default_rng(seed)
    seconds = rng.uniform(0.5, 2.0, size=_LAYERS)
    return BackwardTimeline(
        tuple(
            LayerTiming(f"layer{i}", float(seconds[i]), (f"p{i}",))
            for i in range(_LAYERS)
        )
    )


def synthesize_fleet_run(
    *, workers: int, racks: int, steps: int, seed: int = 0
) -> list[StepTransmissions]:
    """Deterministic hier-shaped transmission plans, no training involved.

    Mirrors what the hierarchical engine records: per-worker gradient
    pushes on their rack channel, one cross-rack aggregate per rack that
    depends on its workers' pushes, and a down/bcast pull pipeline per
    rack. Byte counts, frame counts, and compute times vary pseudo-
    randomly (seeded) so link contention and dependency waves are
    non-trivial.
    """
    if workers % racks:
        raise ValueError(f"{workers} workers do not divide into {racks} racks")
    rack_size = workers // racks
    rng = np.random.default_rng(seed)
    plans: list[StepTransmissions] = []
    for step in range(steps):
        records: list[TransmissionRecord] = []
        agg_names: dict[int, tuple[str, ...]] = {}
        for rack in range(racks):
            names = []
            for slot in range(rack_size):
                wid = rack * rack_size + slot
                name = f"w{wid}:grad"
                names.append(name)
                records.append(
                    TransmissionRecord(
                        name=name,
                        params=(f"p{wid % _LAYERS}",),
                        wire_bytes=int(rng.integers(2_000, 40_000)),
                        elements=int(rng.integers(5_000, 100_000)),
                        route=f"rack{rack}",
                        worker=wid,
                        phase="push",
                        frames=1 + wid % 3,
                    )
                )
            agg_names[rack] = tuple(names)
        for rack in range(racks):
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
                    depends_on=agg_names[rack],
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
    return plans


def fleet_links(racks: int, rack_size: int):
    intra = LinkSpec("1Gbps", 1e9)
    cross = LinkSpec("core", 1e8, rtt_seconds=1e-4)
    return hierarchical_links(intra, cross, racks=racks, rack_size=rack_size)


def _simulator(plansless_cfg, *, vectorized: bool) -> NetworkSimulator:
    return NetworkSimulator(
        fleet_timeline(),
        fleet_links(plansless_cfg["racks"], plansless_cfg["workers"] // plansless_cfg["racks"]),
        TIME_MODEL,
        overlap=True,
        vectorized=vectorized,
    )


def _events(plans) -> int:
    return sum(len(st.records) for st in plans)


def assert_parity(vector_steps, scalar_steps) -> None:
    """Scalar and vector cores must schedule identical events (≤1e-9)."""
    for vec, ref in zip(vector_steps, scalar_steps):
        if not math.isclose(
            vec.step_seconds, ref.step_seconds, rel_tol=PARITY_TOL, abs_tol=PARITY_TOL
        ):
            raise AssertionError(
                f"step {ref.step}: vector {vec.step_seconds!r} != "
                f"scalar {ref.step_seconds!r}"
            )
        if not math.isclose(
            vec.comm_seconds, ref.comm_seconds, rel_tol=PARITY_TOL, abs_tol=PARITY_TOL
        ):
            raise AssertionError(f"step {ref.step}: comm_seconds diverged")
        if vec.critical_path != ref.critical_path:
            raise AssertionError(
                f"step {ref.step}: critical path {vec.critical_path!r} != "
                f"{ref.critical_path!r}"
            )


def bench_config(cfg: dict, *, seed: int = 0) -> dict:
    """Measure one grid point; returns the JSON-ready result row."""
    plans = synthesize_fleet_run(
        workers=cfg["workers"], racks=cfg["racks"], steps=cfg["steps"], seed=seed
    )
    events = _events(plans)

    vec_sim = _simulator(cfg, vectorized=True)
    t0 = time.perf_counter()
    vec_run = vec_sim.simulate_run(plans)
    vec_cold_seconds = time.perf_counter() - t0
    # Steady state: a sweep replays one recording under many link and
    # time-model configs, and the record batch rides the recording's
    # shared skeleton — only the first replay builds it. Throughput and the
    # speedup target are measured on the warmed replay (the sweep
    # regime); the cold first-replay time is reported alongside.
    t0 = time.perf_counter()
    vec_run = vec_sim.simulate_run(plans)
    vec_seconds = time.perf_counter() - t0

    scalar_plans = plans[: min(len(plans), SCALAR_STEP_CAP)]
    scalar_events = _events(scalar_plans)
    scalar_sim = _simulator(cfg, vectorized=False)
    assert not scalar_sim.vectorized, "vectorized=False must select the reference"
    scalar_sim.simulate_run(scalar_plans)  # same warm-up discipline
    t0 = time.perf_counter()
    scalar_run = scalar_sim.simulate_run(scalar_plans)
    scalar_seconds = time.perf_counter() - t0

    assert_parity(vec_run.steps[: len(scalar_plans)], scalar_run.steps)

    vec_eps = events / vec_seconds if vec_seconds > 0 else float("inf")
    scalar_eps = (
        scalar_events / scalar_seconds if scalar_seconds > 0 else float("inf")
    )
    speedup = vec_eps / scalar_eps if scalar_eps > 0 else float("inf")
    return {
        "workers": cfg["workers"],
        "racks": cfg["racks"],
        "steps": cfg["steps"],
        "records_per_step": len(plans[0].records),
        "events": events,
        "vector_seconds": vec_seconds,
        "vector_cold_seconds": vec_cold_seconds,
        # Cold/warm ratio: what the first replay of a recording costs
        # relative to the steady-state sweep replay. The extraction
        # amortization work (warm_extraction via SweepReplayCache) keeps
        # this bounded; --check gates it against the baseline.
        "cold_warm_ratio": (
            vec_cold_seconds / vec_seconds if vec_seconds > 0 else float("inf")
        ),
        "vector_events_per_sec": vec_eps,
        "scalar_steps_measured": len(scalar_plans),
        "scalar_seconds": scalar_seconds,
        "scalar_events_per_sec": scalar_eps,
        "speedup": speedup,
    }


def check_against_baseline(rows: list[dict], baseline_path: Path) -> list[str]:
    """Regression gate: >2× events/sec drop vs the committed baseline."""
    baseline = json.loads(baseline_path.read_text())
    by_key = {
        (row["workers"], row["racks"], row["steps"]): row
        for row in baseline["configs"]
    }
    failures = []
    for row in rows:
        key = (row["workers"], row["racks"], row["steps"])
        ref = by_key.get(key)
        if ref is None:
            continue
        floor = ref["vector_events_per_sec"] / REGRESSION_FACTOR
        if row["vector_events_per_sec"] < floor:
            failures.append(
                f"{key}: {row['vector_events_per_sec']:.0f} events/s < "
                f"{floor:.0f} (baseline {ref['vector_events_per_sec']:.0f} "
                f"/ {REGRESSION_FACTOR:g})"
            )
        # Cold-extraction gate (additive: pre-ratio baselines skip it):
        # the first replay of a recording must not get relatively more
        # expensive than the committed cold/warm ratio allows.
        ref_ratio = ref.get("cold_warm_ratio")
        if ref_ratio is not None:
            ceiling = ref_ratio * REGRESSION_FACTOR
            if row["cold_warm_ratio"] > ceiling:
                failures.append(
                    f"{key}: cold/warm ratio {row['cold_warm_ratio']:.1f} > "
                    f"{ceiling:.1f} (baseline {ref_ratio:.1f} x "
                    f"{REGRESSION_FACTOR:g})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI scale: only the small configs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail on >{REGRESSION_FACTOR:g}x events/sec regression vs "
        f"{BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the results (the committed baseline is "
        "benchmarks/BENCH_simperf.json)",
    )
    args = parser.parse_args(argv)

    grid = [cfg for cfg in GRID if cfg["smoke"] or not args.smoke]
    rows = [bench_config(cfg) for cfg in grid]

    table = format_table(
        [
            "workers",
            "racks",
            "steps",
            "events",
            "cold s",
            "vec s",
            "cold/warm",
            "vec ev/s",
            "scalar ev/s",
            "speedup",
        ],
        [
            [
                str(r["workers"]),
                str(r["racks"]),
                str(r["steps"]),
                str(r["events"]),
                f"{r['vector_cold_seconds']:.3f}",
                f"{r['vector_seconds']:.3f}",
                f"{r['cold_warm_ratio']:.1f}x",
                f"{r['vector_events_per_sec']:.0f}",
                f"{r['scalar_events_per_sec']:.0f}",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
    )
    mode = "smoke" if args.smoke else "full"
    print(f"=== fleet-scale simulator throughput ({mode}) ===")
    print(table)
    print(
        f"(scalar reference measured on the first {SCALAR_STEP_CAP} steps "
        "per config; parity asserted at 1e-9; 'vec s' is the warmed "
        "replay a sweep pays, 'cold s' the first replay of a recording)"
    )

    if not args.smoke:
        fleet = next(
            r for r in rows if (r["workers"], r["racks"]) == (1024, 64)
        )
        if fleet["speedup"] < TARGET_SPEEDUP:
            print(
                f"FAIL: fleet-scale speedup {fleet['speedup']:.1f}x < "
                f"{TARGET_SPEEDUP:g}x target",
                file=sys.stderr,
            )
            return 1
        print(
            f"fleet-scale config: {fleet['speedup']:.1f}x >= "
            f"{TARGET_SPEEDUP:g}x target"
        )

    payload = {"benchmark": "simperf", "mode": mode, "configs": rows}
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        if not BASELINE_PATH.exists():
            print(f"FAIL: no baseline at {BASELINE_PATH}", file=sys.stderr)
            return 1
        failures = check_against_baseline(rows, BASELINE_PATH)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"regression check vs {BASELINE_PATH.name}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
