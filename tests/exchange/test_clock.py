"""The clock policy: modeled seconds are a function of the seed.

Three claims, each checked where it could fail:

* no wall-clock reading reaches a *modeled* record — with
  ``time.perf_counter`` replaced by a jittered counter in every module that
  times real work, every golden-ledger cell records exactly what it records
  unpatched (and a *measured* run does not, so the patch is live);
* a traced modeled run is byte-reproducible — two fresh interpreters with
  different ``PYTHONHASHSEED`` export identical archives, traces, metric
  snapshots and bottleneck reports, and ``trace-diff`` of the pair is
  empty; same for an async cell's update events;
* the modeled values are the stated model (constant compute, per-element
  codec rate by phase), with or without ``sim_overlap``.

Run as a script this file is the child process of the second claim:
``python tests/exchange/test_clock.py OUT_DIR``.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_golden_ledger import CELLS, SCHEME, cell_config, recorded_engine, run_cell

from repro.exchange import MEASURED, MODELED, Clock, EngineConfig
from repro.exchange.clock import CODEC_RATE
from repro.harness import ExperimentRunner, save_results
from repro.netsim import SweepReplayCache
from repro.telemetry.analysis import diff
from repro.telemetry.analysis.attribution import (
    attribute_trace,
    bottleneck_report,
    load_chrome_trace,
)
from repro.telemetry.export import write_chrome_trace, write_metric_snapshots

TIMED_MODULES = (
    "repro.exchange.engine",
    "repro.exchange.topology",
    "repro.distributed.worker",
    "repro.distributed.server",
    "repro.nn.module",
)
EXPORTS = ("results.json", "trace.json", "metrics.jsonl", "report.json", "updates.json")


def jitter_perf_counter(monkeypatch) -> None:
    """Put a monotone counter with seeded random strides — of a second or
    two, which no real reading here is — in place of each timed module's
    ``time``."""
    rng, now = random.Random(7), [0.0]

    def perf_counter() -> float:
        now[0] += rng.uniform(1.0, 2.0)
        return now[0]

    for name in TIMED_MODULES:
        monkeypatch.setattr(
            sys.modules[name], "time", SimpleNamespace(perf_counter=perf_counter)
        )


@pytest.fixture
def jittered_perf_counter(monkeypatch):
    jitter_perf_counter(monkeypatch)


def seconds_of(engine):
    """Everything an engine recorded, every seconds field included."""
    return (
        engine.transmissions,
        engine.update_events,
        engine.traffic.steps,
        [log.train_loss for log in engine.step_logs],
    )


def traced_runner(cell: str, clock: Clock) -> ExperimentRunner:
    config, _ = cell_config(cell)
    return ExperimentRunner(
        config.scaled(sim_overlap=True, telemetry=True, clock=clock), SweepReplayCache()
    )


class TestNoWallClockLeak:
    @pytest.mark.parametrize("cell", CELLS)
    def test_modeled_recording_ignores_perf_counter(self, cell, jittered_perf_counter):
        assert seconds_of(run_cell(cell)) == seconds_of(recorded_engine(cell))

    def test_measured_recording_follows_perf_counter(self, jittered_perf_counter):
        """The patch is live: a measured clock records the counter."""
        plain = run_cell("single_bsp", clock=MEASURED)
        for step in plain.transmissions:
            assert 1.0 <= step.compute_seconds <= 2.0
            assert step.codec_seconds >= 4.0

    def test_timeline_and_scores_ignore_perf_counter(self, monkeypatch):
        plain = traced_runner("hier4x2_bsp", MODELED)
        want = plain.run(SCHEME)
        jitter_perf_counter(monkeypatch)
        patched = traced_runner("hier4x2_bsp", MODELED)
        got = patched.run(SCHEME)
        assert patched.backward_timeline() == plain.backward_timeline()
        assert got.mean_step_seconds == want.mean_step_seconds
        assert got.telemetry_summary == want.telemetry_summary
        measured = traced_runner("hier4x2_bsp", MEASURED).backward_timeline()
        assert all(1.0 <= layer.seconds <= 2.0 for layer in measured.layers)


class TestTheModel:
    @pytest.mark.parametrize("cell", ["single_bsp", "ring_bsp", "hier4x2_ssp2"])
    def test_codec_seconds_are_rate_times_phase_elements(self, cell):
        engine = recorded_engine(cell)
        for quantum in engine.transmissions or engine.update_events:
            pull = sum(r.elements for r in quantum.records if r.phase == "pull")
            push = sum(r.elements for r in quantum.records) - pull
            fields = asdict(quantum)
            sides = {
                name: pull if name.startswith(("pull_", "server_compress")) else push
                for name in fields
                if name.endswith("_seconds") and name not in ("compute_seconds", "clock_seconds")
            }
            assert len(sides) == 4
            for name, elements in sides.items():
                assert fields[name] == CODEC_RATE * elements, name

    @pytest.mark.parametrize("cell", ["single_bsp", "hier4x2_bsp", "single_async"])
    def test_unrecorded_runs_are_charged_the_same_seconds(self, cell):
        """``sim_overlap=False`` never falls back to measuring."""
        plain = run_cell(cell, record=False)
        assert not plain.transmissions and not plain.update_events
        assert plain.traffic.steps == recorded_engine(cell).traffic.steps
        assert all(step.codec_seconds > 0 for step in plain.traffic.steps)

    def test_compute_is_the_constant_times_the_straggler(self):
        engine = recorded_engine("sharded2_lossy_fused_async")
        assert {u.compute_seconds for u in engine.update_events} == {0.01, 0.03}

    def test_a_bad_constant_is_refused_by_name(self):
        with pytest.raises(ValueError, match="compute_seconds must be > 0"):
            Clock(compute_seconds=0.0)
        assert EngineConfig().clock is MEASURED and MEASURED.name == "measured"
        assert MODELED.name == "modeled"


def export(out: Path) -> None:
    """What a user keeps of a traced run, plus an async event stream."""
    runner = traced_runner("hier4x2_bsp", MODELED)
    save_results([runner.run(SCHEME)], out / "results.json")
    write_chrome_trace(out / "trace.json", runner.telemetry_sessions)
    write_metric_snapshots(out / "metrics.jsonl", runner.telemetry_sessions)
    report = bottleneck_report(attribute_trace(load_chrome_trace(out / "trace.json")))
    (out / "report.json").write_text(json.dumps(report, indent=2))
    updates = run_cell("single_async", clock=MODELED).update_events
    (out / "updates.json").write_text(json.dumps([asdict(u) for u in updates]))


def test_traced_modeled_run_is_byte_identical_across_processes(tmp_path):
    children = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        children.append(
            subprocess.Popen([sys.executable, __file__, str(out)], env=env)
        )
    assert [child.wait(timeout=120) for child in children] == [0, 0]
    for name in EXPORTS:
        ours, theirs = ((tmp_path / seed / name).read_bytes() for seed in "12")
        assert ours and ours == theirs, name
    report = tmp_path / "diff.json"
    traces = [str(tmp_path / seed / "trace.json") for seed in "12"]
    assert diff.main([*traces, "--json", str(report)]) == 0
    groups = json.loads(report.read_text())["groups"]
    assert groups and all(group["regressions"] == [] for group in groups)


if __name__ == "__main__":
    export(Path(sys.argv[1]))
