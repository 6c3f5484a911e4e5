"""Smoke test of the benchmark itself, collected by tier-1's bare ``pytest``.

Runs every workload once at miniature scale, in-process, through the same
code path the children use (one untraced and one traced pass), and checks
the benchmark's own contract: ``BENCHMARK.json`` is well formed, emitted
names equal its lists, every declared check ran and passed, no span target
is missing (and a missing one reads absent, not 0), and ``compare.py`` of a
result file against itself is all ``same``.
"""

import json
import re

import pytest

from perf import bench, compare, metrics, run, spans

CONTRACT = metrics.CONTRACT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def results():
    return {
        name: bench.run_one(name, seed=0, seconds=0, trace=True, scale="mini")
        for name in metrics.WORKLOADS
    }


def test_benchmark_json_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["command"] == ["python3", "perf/run.py"]
    assert CONTRACT["paths"] == ["perf"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in CONTRACT["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in CONTRACT["per_layer"])
    assert all(0 < bound <= 0.25 for _, _, _, bound in metrics.END_TO_END)
    assert ("setup_s", "s", "lower") in [m[:3] for m in metrics.END_TO_END]
    every = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in every)
    names = list(metrics.WORKLOADS) + [m["name"] for m in every]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    # what perf/ adds to the contract's table refers to names in it
    assert set(metrics.SPAN_METRICS) <= {n for n, _, _ in metrics.PER_LAYER}
    assert {span for span, _ in metrics.SPAN_METRICS.values()} <= {
        span for span, _ in metrics.SPAN_TARGETS
    }
    assert {w for *_, w in metrics.WORKLOAD_METRICS} <= set(metrics.WORKLOADS)


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_workload_emits_contract_names_and_passes_checks(results, name):
    result = results[name]
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["passes"] == {"untraced": 1, "traced": 1}
    assert list(result["per_layer"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert list(result["end_to_end"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["end_to_end"].values())
    # Every invariant check ran (goldens apply to full scale at seed 0 only).
    declared = bench.load_workload(name).CHECKS
    assert result["checks_run"] == list(declared)
    assert result["missing_span_targets"] == [] and result["absent_metrics"] == []
    gated = {n for n, _, _, _, w in metrics.WORKLOAD_METRICS if w == name}
    assert set(result["extras"]) == gated


def test_layer_spans_stay_in_their_workloads(results):
    def nonzero(workload, prefix):
        return [
            n for n, e in results[workload]["per_layer"].items()
            if n.startswith(prefix) and e["value"]
        ]

    for workload in metrics.WORKLOADS:
        telemetry = nonzero(workload, "telemetry.")
        assert bool(telemetry) == (workload == "traced_sweep"), telemetry
    assert not nonzero("codec_stream", "nn.") and not nonzero("fleet_replay", "nn.")
    assert nonzero("resnet_sweep", "nn.fwd_bwd_s")


def test_missing_span_target_is_reported_not_fatal():
    recorder = spans.SpanRecorder()
    undo, missing = spans.install(
        recorder,
        [
            ("gone", "repro.harness.runner.ExperimentRunner.no_such_method"),
            ("gone", "repro.no_such_module.thing"),
            ("math.sqrt", "math.sqrt"),
        ],
    )
    try:
        import math

        assert math.sqrt(4.0) == 2.0
    finally:
        spans.uninstall(undo)
    assert missing == [
        "repro.harness.runner.ExperimentRunner.no_such_method",
        "repro.no_such_module.thing",
    ]
    assert recorder.aggregate()["math.sqrt"].count == 1
    assert not hasattr(math.sqrt, "__wrapped__")


def test_metric_of_a_missing_span_target_reads_absent_not_zero(monkeypatch):
    gone = "repro.netsim.scheduler.NetworkSimulator.simulate_run"
    monkeypatch.setattr(
        metrics,
        "SPAN_TARGETS",
        tuple((s, t + "_renamed" if t == gone else t) for s, t in metrics.SPAN_TARGETS),
    )
    result = bench.run_one("fleet_replay", seed=0, seconds=0, trace=True, scale="mini")
    assert result["correct"] and result["failed"] == 0
    assert result["missing_span_targets"] == [gone + "_renamed"]
    assert result["absent_metrics"] == ["netsim.simulate_run_s"]
    assert result["per_layer"]["netsim.simulate_run_s"]["value"] == metrics.ABSENT
    assert result["per_layer"]["netsim.fresh_replay_s"]["value"] > 0
    document = run.build_document(
        {"fleet_replay": [result]}, {"fleet_replay": result}, seed=0, seconds=0
    )
    assert "netsim.simulate_run_s" not in document["per_layer"]["fleet_replay"]
    assert document["missing_span_targets"] == [gone + "_renamed"]


def test_span_self_time_excludes_children():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    totals = recorder.aggregate()
    assert totals["outer"].self_time == pytest.approx(
        totals["outer"].total - totals["inner"].total
    )


def test_compare_of_a_file_with_itself_is_all_same(results, tmp_path, capsys):
    document = run.build_document(
        {name: [result] for name, result in results.items()},
        results,
        seed=0,
        seconds=0,
    )
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document))
    assert compare.main([str(path), str(path)]) == 0
    rows = compare.compare(document, document)
    assert {row["verdict"] for row in rows} == {"same"}
    # every end-to-end metric x workload, the gated workload metrics, failed_share
    assert len(rows) == 3 * 6 + 4 + 6
    assert "unresolved" in capsys.readouterr().out  # the summary line names it


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.1)[0] == "worse"
    assert compare.verdict([1.0, 1.0, 1.0], [0.8, 0.8, 0.8], "lower", 0.1)[0] == "better"
    assert compare.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "higher", 0.1)[0] == "better"
    assert compare.verdict([1.0, 1.02, 0.98], [1.03, 1.0, 1.01], "lower", 0.1)[0] == "same"
    # spread wider than the bound and overlapping runs: cannot tell
    assert compare.verdict([1.0, 1.3, 0.9], [1.2, 1.0, 1.25], "lower", 0.1)[0] == "unresolved"
    # ...unless every run of one side beats every run of the other
    assert compare.verdict([1.0, 1.3, 0.9], [1.6, 1.5, 1.9], "lower", 0.1)[0] == "worse"
