"""Golden ledger: per-quantum losses, traffic integers and record streams.

``golden_ledger.json`` pins what one scheduling quantum leaves behind —
its train loss, every integer ``StepTraffic`` field, and the recorded
``TransmissionRecord`` stream *in order* (the vector simulator core breaks
ties on registration order) — over the exchange cells the four older
goldens do not cover: the six ``perf/metrics.py: EXCHANGE_CELLS`` shapes,
a sharded lossy-fused async run, a hierarchical uplink flap with rejoin,
a single-server crash with a checkpointed restart, and the fused-bucket
shapes the wire stream's four owners differ on (per-rack uplink buckets
and per-rack fused pull streams, a crash snapshot of lossy bucket
contexts, a stochastic scheme whose bucket draws follow the stream key),
stragglers under a backup-worker barrier, and stragglers on the ring and
the rack rings (collectives reduce in rank order, not arrival
order). Every run is on
a modeled clock (compute 0.01 s) so barrier order and virtual clocks do
not depend on wall-clock noise.

The second half checks that the recording is an *observer*: switching
``record_transmissions`` off leaves losses and the traffic log unchanged,
and on the point-to-point tiers the recorded bytes and frames add up to
what the meter counted.

``golden_engine_telemetry.json`` pins the engine telemetry
:func:`~repro.telemetry.trace_training` builds from the same finished
runs: every engine span (track, name, start, end, args — the per-worker
compute / compress / push+wait spans, the server, ``allreduce+codec`` and
``rack-pipeline`` stages, the pull decodes) and the last metric snapshot.
Tracing reads a run and leaves its ledger as it was.

Regenerate both (after an *intentional* change) by running this file as
a script: ``PYTHONPATH=src python tests/exchange/test_golden_ledger.py``.
"""

import functools
import json
import pickle
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.compression import make_compressor
from repro.distributed.barriers import StragglerSpec
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange import Clock, ExchangeEngine
from repro.harness.config import FAST_CONFIG
from repro.netsim import TransmissionRecord
from repro.network.traffic import StepTraffic
from repro.telemetry import Telemetry, trace_training

GOLDEN_PATH = Path(__file__).parent / "golden_ledger.json"
TELEMETRY_PATH = Path(__file__).parent / "golden_engine_telemetry.json"
SCHEME = "3LC (s=1.00)"
QUANTA = 4

#: cell -> ExperimentConfig overrides on the bench MLP. The first six are
#: the shapes of ``perf/metrics.py: EXCHANGE_CELLS`` (8 workers).
CELLS = {
    "single_bsp": dict(topology="single"),
    "sharded4_fused_bsp": dict(
        topology="sharded", num_shards=4, fuse_small_tensors=True
    ),
    "ring_bsp": dict(topology="ring"),
    "hier4x2_bsp": dict(topology="hier", racks=4, rack_size=2),
    "single_async": dict(topology="single", sync_mode="async"),
    "hier4x2_ssp2": dict(
        topology="hier", racks=4, rack_size=2, sync_mode="ssp", staleness=2
    ),
    "sharded2_lossy_fused_async": dict(
        num_workers=3,
        topology="sharded",
        num_shards=2,
        fuse_small_tensors=True,
        fuse_lossy=True,
        sync_mode="async",
        straggler=StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.35, slowdown_factor=3.0, seed=5
        ),
    ),
    "hier2x2_flap_rejoin": dict(
        num_workers=4,
        topology="hier",
        racks=2,
        rack_size=2,
        fault=FaultSpec(
            flaps=(UplinkFlap(rack=1, step=1, rejoin_delay_seconds=0.05),)
        ),
    ),
    "single_crash_restart": dict(
        num_workers=4,
        topology="single",
        fault=FaultSpec(crashes=(WorkerCrash(worker=2, step=1),)),
    ),
    "hier2x2_fused_bsp": dict(
        num_workers=4,
        topology="hier",
        racks=2,
        rack_size=2,
        fuse_small_tensors=True,
    ),
    "hier2x2_fused_ssp1": dict(
        num_workers=4,
        topology="hier",
        racks=2,
        rack_size=2,
        fuse_small_tensors=True,
        sync_mode="ssp",
        staleness=1,
    ),
    # Lossy buckets, so the crash-time snapshot holds bucket residuals.
    "single_fused_crash_restart": dict(
        num_workers=4,
        topology="single",
        fuse_small_tensors=True,
        fuse_lossy=True,
        fault=FaultSpec(crashes=(WorkerCrash(worker=2, step=1),)),
    ),
    # Stochastic quantization: a changed stream key changes the bytes.
    "sharded2_stoch_lossy_fused_bsp": dict(
        num_workers=4,
        topology="sharded",
        num_shards=2,
        fuse_small_tensors=True,
        fuse_lossy=True,
        scheme="Stoch 3-value + QE",
    ),
    # Stragglers under a backup-worker barrier: BSP workers arrive apart,
    # so the barrier's order is not rank order, and push+wait spans show.
    "single_straggler_backup_bsp": dict(
        num_workers=4,
        topology="single",
        backup_workers=1,
        straggler=StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.35, slowdown_factor=3.0, seed=5
        ),
    ),
    # Collectives whose workers arrive apart: the ring and the rack rings
    # take every worker's gradients in rank order, never the barrier's.
    "ring_straggler_bsp": dict(
        topology="ring",
        straggler=StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.35, slowdown_factor=3.0, seed=5
        ),
    ),
    "hier2x2_straggler_bsp": dict(
        num_workers=4,
        topology="hier",
        racks=2,
        rack_size=2,
        straggler=StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.35, slowdown_factor=3.0, seed=5
        ),
    ),
}

INT_FIELDS = tuple(f.name for f in fields(StepTraffic) if f.type == "int")


#: Compute 0.01 s a batch (codec seconds never reach the snapshot).
CLOCK = Clock(compute_seconds=0.01)


def cell_config(cell: str):
    """The cell's ``(ExperimentConfig, scheme name)``."""
    overrides = {"num_workers": 8, **CELLS[cell]}
    scheme = overrides.pop("scheme", SCHEME)
    config = FAST_CONFIG.scaled(
        model_family="mlp", base_lr=0.005, standard_steps=QUANTA, **overrides
    )
    return config, scheme


def run_cell(cell: str, *, record: bool = True, clock: Clock = CLOCK) -> ExchangeEngine:
    config, scheme = cell_config(cell)
    engine = ExchangeEngine(
        config.model_factory(),
        config.dataset(),
        make_compressor(scheme, seed=config.scheme_seed),
        config.schedule(QUANTA),
        replace(config.engine_config(), record_transmissions=record, clock=clock),
    )
    engine.train(QUANTA)
    return engine


def traffic_rows(engine: ExchangeEngine) -> list[dict]:
    return [
        {
            "loss": log.train_loss,
            "compute_seconds": traffic.compute_seconds,
            "traffic": [getattr(traffic, name) for name in INT_FIELDS],
        }
        for log, traffic in zip(engine.step_logs, engine.traffic.steps)
    ]


def ledger(engine: ExchangeEngine) -> list[dict]:
    """One JSON-ready row per quantum (tuples become lists, as JSON would)."""
    recorded = engine.transmissions or engine.update_events
    rows = traffic_rows(engine)
    assert len(recorded) == len(rows)
    for row, quantum in zip(rows, recorded):
        if engine.synchronous:
            row["link_down"] = [list(pair) for pair in quantum.link_down]
        else:
            row["update"] = [
                quantum.update,
                quantum.worker,
                quantum.local_step,
                quantum.global_step,
                quantum.staleness,
                quantum.clock_seconds,
            ]
        row["records"] = [
            [
                r.name,
                list(r.params),
                r.wire_bytes,
                r.elements,
                r.route,
                r.worker,
                r.phase,
                r.copies,
                r.frames,
                list(r.depends_on),
            ]
            for r in quantum.records
        ]
    return rows


def engine_telemetry(engine: ExchangeEngine) -> dict:
    """The engine's spans as JSON-ready rows, and its last metric snapshot,
    traced from the finished run."""
    tel = Telemetry()
    trace_training(
        tel,
        engine.scheme.name,
        engine.step_logs,
        engine.traffic.steps,
        engine.service.STAGES,
    )
    assert {span.group for span in tel.tracer.spans} == {"engine"}
    return {
        "spans": [
            [span.track, span.name, span.start, span.end, span.args]
            for span in tel.tracer.spans
        ],
        "snapshot": tel.step_snapshots[-1],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_telemetry() -> dict:
    return json.loads(TELEMETRY_PATH.read_text())


@functools.cache
def recorded_engine(cell: str) -> ExchangeEngine:
    """One recorded run per cell, shared by the tests below."""
    return run_cell(cell)


@pytest.mark.parametrize("cell", CELLS)
class TestGoldenLedger:
    def test_ledger_matches_snapshot(self, cell, golden):
        assert golden["traffic_fields"] == list(INT_FIELDS)
        rows = ledger(recorded_engine(cell))
        expected = golden["cells"][cell]
        assert len(rows) == len(expected) == QUANTA
        for index, (row, want) in enumerate(zip(rows, expected)):
            assert row == want, f"{cell}: quantum {index} diverged"

    def test_recording_is_an_observer(self, cell):
        recorded = recorded_engine(cell)
        plain = run_cell(cell, record=False)
        assert not plain.transmissions and not plain.update_events
        assert traffic_rows(plain) == traffic_rows(recorded)

    def test_engine_telemetry_matches_snapshot(self, cell, golden_telemetry):
        got = engine_telemetry(recorded_engine(cell))
        want = golden_telemetry[cell]
        for index, (span, expected) in enumerate(zip(got["spans"], want["spans"])):
            args = expected[4]
            quantum = args.get("update", args.get("step"))
            assert span == expected, f"{cell}: quantum {quantum}, span {index} diverged"
        assert len(got["spans"]) == len(want["spans"]), f"{cell}: span count"
        assert got["snapshot"] == want["snapshot"], f"{cell}: final metric snapshot"

    def test_telemetry_is_an_observer(self, cell):
        engine = recorded_engine(cell)
        before = ledger(engine)
        engine_telemetry(engine)
        assert ledger(engine) == before


# Ring records are per-link by design (tests/netsim pins that relation).
@pytest.mark.parametrize(
    "cell", [cell for cell in CELLS if CELLS[cell]["topology"] != "ring"]
)
def test_point_to_point_records_reconcile_with_the_meter(cell):
    engine = recorded_engine(cell)
    quanta = engine.transmissions or engine.update_events
    for quantum, traffic in zip(quanta, engine.traffic.steps):
        records = quantum.records
        if CELLS[cell]["topology"] == "hier":
            cross = sum(
                r.total_bytes for r in records if r.route.startswith("cross")
            )
            assert cross == traffic.cross_rack_bytes
            continue
        push = sum(r.total_bytes for r in records if r.phase == "push")
        pull = sum(r.total_bytes for r in records if r.phase == "pull")
        assert push == traffic.push_bytes
        assert pull == traffic.pull_bytes_total + traffic.resync_bytes
        frames = sum(r.frames for r in records if not r.name.startswith("resync:"))
        assert frames == traffic.frames


@pytest.mark.parametrize("cell", CELLS)
def test_recorded_plans_equal_their_records_rebuilt(cell):
    """The engine's ledger builds a plan through the same path as the
    public records constructor: rebuilding each recorded plan from its own
    ``records`` gives an equal plan with the same hash, before and after
    a pickle round trip."""
    engine = recorded_engine(cell)
    for quantum in engine.transmissions or engine.update_events:
        given = {f.name: getattr(quantum, f.name) for f in fields(quantum)}
        rebuilt = type(quantum)(**given)
        for plan in (quantum, pickle.loads(pickle.dumps(quantum))):
            assert plan == rebuilt and hash(plan) == hash(rebuilt)


@pytest.mark.parametrize(
    "cell", ["single_bsp", "ring_bsp", "hier4x2_bsp", "single_async", "hier4x2_ssp2"]
)
def test_rows_are_validated_once_per_structure(cell, monkeypatch):
    """A recording validates each distinct skeleton's rows once through the
    record constructor, not one record per send."""
    calls = []
    init = TransmissionRecord.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TransmissionRecord, "__init__", counted)
    engine = run_cell(cell)
    monkeypatch.undo()
    recorded = engine.transmissions or engine.update_events
    skeletons = {id(plan.skeleton): plan.skeleton for plan in recorded}
    rows = sum(len(skeleton.columns[0]) for skeleton in skeletons.values())
    assert len(calls) <= rows, f"{cell}: {len(calls)} validations for {rows} rows"


def test_snapshot_covers_the_fault_paths(golden):
    """Guard against regenerating the fault cells into fault-free runs."""
    flap = golden["cells"]["hier2x2_flap_rejoin"]
    assert any(row["link_down"] for row in flap)
    names = [record[0] for row in flap for record in row["records"]]
    assert "resync:rack1:bcast" in names
    floors = [route for row in flap for route, _ in row["link_down"]]
    assert floors == ["cross:rack1"]
    crash = golden["cells"]["single_crash_restart"]
    resync = INT_FIELDS.index("resync_bytes")
    assert [row["traffic"][resync] > 0 for row in crash] == [
        False,
        False,
        True,
        False,
    ]


if __name__ == "__main__":  # regenerate the snapshot
    cells = {cell: ledger(run_cell(cell)) for cell in CELLS}
    lines = ["{", f' "traffic_fields": {json.dumps(list(INT_FIELDS))},', ' "cells": {']
    for c, (cell, rows) in enumerate(cells.items()):
        lines.append(f"  {json.dumps(cell)}: [")
        lines.extend(
            "   " + json.dumps(row) + ("," if r < len(rows) - 1 else "")
            for r, row in enumerate(rows)
        )
        lines.append("  ]" + ("," if c < len(cells) - 1 else ""))
    lines += [" }", "}"]
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN_PATH}")

    lines = ["{"]
    for c, cell in enumerate(CELLS):
        pinned = engine_telemetry(run_cell(cell))
        lines.append(f'  {json.dumps(cell)}: {{"spans": [')
        lines.extend(
            "   " + json.dumps(span) + ("," if s < len(pinned["spans"]) - 1 else "")
            for s, span in enumerate(pinned["spans"])
        )
        lines.append(f'  ], "snapshot": {json.dumps(pinned["snapshot"])}}}')
        lines[-1] += "," if c < len(CELLS) - 1 else ""
    lines.append("}")
    TELEMETRY_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {TELEMETRY_PATH}")
