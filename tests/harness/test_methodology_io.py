"""Tests for the two-phase measurement protocol and results persistence."""

import pytest

from repro.harness import (
    FAST_CONFIG,
    ExperimentRunner,
    load_results,
    save_results,
    two_phase_estimate,
)
from repro.harness.methodology import accelerated_fraction
from repro.harness.results_io import run_result_from_dict, run_result_to_dict


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(FAST_CONFIG)


class TestAcceleratedFraction:
    def test_zre_designs_run_ten_percent(self):
        assert accelerated_fraction("3LC (s=1.75)", "10Mbps", 1000) == 0.1

    def test_no_zre_design_uses_fixed_budget(self):
        # Fixed 100-step budget at 10 Mbps: fraction shrinks as the
        # standard budget grows, unlike the ZRE designs' constant 10%.
        assert accelerated_fraction("3LC (s=1.00, no ZRE)", "10Mbps", 2000) == 0.05
        assert accelerated_fraction("32-bit float", "10Mbps", 1000) == 0.1
        assert accelerated_fraction("32-bit float", "100Mbps", 2000) == 0.5

    def test_capped_at_standard_budget(self):
        assert accelerated_fraction("8-bit int", "10Mbps", 50) == 1.0

    def test_only_slow_links(self):
        with pytest.raises(ValueError):
            accelerated_fraction("32-bit float", "1Gbps", 100)


class TestTwoPhaseEstimate:
    @pytest.mark.parametrize("scheme", ["32-bit float", "3LC (s=1.00)"])
    def test_estimate_close_to_direct(self, runner, scheme):
        """The paper's extrapolation should track the simulator's direct
        per-link computation: per-step times are near-stationary, so the
        short-run mean is representative."""
        estimate = two_phase_estimate(runner, scheme, "10Mbps")
        assert estimate.relative_error < 0.35
        assert estimate.accelerated_steps <= runner.config.standard_steps
        assert estimate.accuracy == runner.run(scheme, 1.0).final_accuracy

    def test_estimate_fields(self, runner):
        estimate = two_phase_estimate(runner, "32-bit float", "100Mbps")
        assert estimate.link_name == "100Mbps"
        assert estimate.estimated_total_seconds > 0
        assert estimate.direct_total_seconds > 0


class TestResultsIo:
    def test_dict_roundtrip(self, runner):
        result = runner.run("32-bit float", 1.0)
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.scheme == result.scheme
        assert restored.final_accuracy == result.final_accuracy
        assert restored.loss_curve == result.loss_curve
        assert restored.mean_step_seconds == result.mean_step_seconds
        assert len(restored.traffic.steps) == len(result.traffic.steps)
        assert restored.traffic.compression_ratio() == pytest.approx(
            result.traffic.compression_ratio()
        )

    def test_file_roundtrip(self, runner, tmp_path):
        results = [runner.run("32-bit float", 1.0), runner.run("3LC (s=1.00)", 1.0)]
        path = tmp_path / "runs" / "results.json"
        save_results(results, path)
        loaded = load_results(path)
        assert [r.scheme for r in loaded] == [r.scheme for r in results]
        assert loaded[1].compression_ratio == results[1].compression_ratio

    def test_version_check(self):
        with pytest.raises(ValueError, match="format version"):
            run_result_from_dict({"format_version": 99})

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ('{"scheme": "3LC"}', "JSON list of run documents"),
            ('[{"format_version": 1}, "not a run"]', "JSON list of run documents"),
            ('[{"format_version": 1, "scheme": "3LC"}]', "a run is missing required field 'traffic_steps'"),
            ('[{"format_version": 1, "traffic_steps": []}]', "a run is missing required field 'scheme'"),
            ('[{"format_version": 1, "traffic_st', "not a results archive"),
        ],
    )
    def test_malformed_archive_fails_naming_the_path_and_field(
        self, tmp_path, text, complaint
    ):
        path = tmp_path / "results.json"
        path.write_text(text)
        with pytest.raises(ValueError) as error:
            load_results(path)
        assert str(path) in str(error.value) and complaint in str(error.value)

    def test_telemetry_summary_roundtrip(self, runner):
        """A populated telemetry rollup survives the dict round trip."""
        from dataclasses import replace

        result = replace(
            runner.run("32-bit float", 1.0),
            telemetry_summary={
                "counters": {"wire_bytes{phase=push,scheme=f32}": 123.0},
                "gauges": {"train_loss": 2.5},
                "histograms": {},
                "spans": {"engine/worker0": {"count": 4, "busy_seconds": 0.25}},
            },
        )
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.telemetry_summary == result.telemetry_summary

    def test_telemetry_summary_defaults_none(self, runner):
        """Runs without telemetry round-trip the field as None."""
        result = runner.run("32-bit float", 1.0)
        assert result.telemetry_summary is None
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.telemetry_summary is None

    def test_legacy_dict_without_telemetry_loads(self, runner):
        """Archives written before the telemetry field still load."""
        data = run_result_to_dict(runner.run("32-bit float", 1.0))
        del data["telemetry_summary"]
        restored = run_result_from_dict(data)
        assert restored.telemetry_summary is None
        assert restored.scheme == "32-bit float"
