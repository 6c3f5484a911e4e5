"""Harness tests: config, runner caching, tables, figures, CLI plumbing.

These run on the miniature FAST_CONFIG — correctness of plumbing, not of
paper numbers (the benchmarks cover those).
"""

import re
from dataclasses import fields

import numpy as np
import pytest

from repro.compression.registry import make_compressor
from repro.data.synthetic import CHANNELS, NUM_CLASSES
from repro.exchange.engine import EngineConfig, ExchangeEngine
from repro.harness import (
    DEFAULT_CONFIG,
    FAST_CONFIG,
    ExperimentConfig,
    ExperimentRunner,
    figure7_curves,
    figure8_sparsity,
    figure9_compressed_size,
    figure_time_accuracy,
    table1,
    table2,
)
from repro.harness import config as config_module
from repro.harness.ascii_plot import Series, render_plot
from repro.harness.tables import TABLE2_SCHEMES
from repro.nn.schedule import MIN_LR


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(FAST_CONFIG)


class TestExperimentConfig:
    def test_steps_for_fraction(self):
        config = ExperimentConfig(standard_steps=100)
        assert config.steps_for_fraction(1.0) == 100
        assert config.steps_for_fraction(0.25) == 25
        with pytest.raises(ValueError):
            config.steps_for_fraction(0.0)

    def test_schedule_sweeps_full_range(self):
        config = ExperimentConfig(standard_steps=100, base_lr=0.02, num_workers=4)
        sched = config.schedule(25)  # 25% budget
        assert sched(0) == pytest.approx(0.08)  # worker-scaled
        assert sched(25) == pytest.approx(MIN_LR)

    def test_scaled_override(self):
        config = FAST_CONFIG.scaled(standard_steps=48)
        assert config.standard_steps == 48
        assert config.depth == FAST_CONFIG.depth

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(standard_steps=2)

    @pytest.mark.parametrize("value", [0, -5, -3, True, 2.5])
    @pytest.mark.parametrize("field", ["eval_size", "eval_points"])
    def test_bad_evaluation_setting_is_refused_by_name(self, field, value):
        """Refused when the config is built, not after training to the end."""
        message = f"{field} must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FAST_CONFIG.scaled(**{field: value})

    @pytest.mark.parametrize("value", [0, -5, True, 2.5])
    def test_evaluate_refuses_bad_test_size_before_loading_state(self, value):
        config = FAST_CONFIG
        engine = ExchangeEngine(
            config.model_factory(),
            config.dataset(),
            make_compressor("32-bit float"),
            config.schedule(config.standard_steps),
            config,
        )

        def load_state_dict(state):
            raise AssertionError("state loaded before test_size was checked")

        engine._eval_model.load_state_dict = load_state_dict
        message = f"test_size must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            engine.evaluate(test_size=value)

    def test_factories(self):
        config = FAST_CONFIG
        model = config.model_factory()()
        assert model.forward(
            np.zeros((1, 3, config.image_size, config.image_size), dtype=np.float32)
        ).shape == (1, NUM_CLASSES)
        assert len(config.dataset().templates) == NUM_CLASSES

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(model_family="mlp", image_size=8),
            dict(model_family="mlp", image_size=16),
            dict(model_family="resnet", depth=8, image_size=12),
            dict(model_family="resnet", depth=14, image_size=16),
        ],
        ids=["mlp-8px", "mlp-16px", "resnet8-12px", "resnet14-16px"],
    )
    def test_each_model_scores_its_datasets_classes(self, overrides):
        """The config's model reads its own dataset's images (CHANNELS
        planes at ``image_size``) and scores every class the labels span."""
        config = FAST_CONFIG.scaled(**overrides)
        images, labels = config.dataset().train_shard(0, 200)
        assert images.shape[1:] == (CHANNELS, config.image_size, config.image_size)
        assert set(labels.tolist()) == set(range(NUM_CLASSES))
        logits = config.model_factory()().forward(images[:4])
        assert logits.shape == (4, NUM_CLASSES)


class TestExperimentRunner:
    def test_run_produces_complete_result(self, runner):
        result = runner.run("32-bit float", 1.0)
        assert result.steps == FAST_CONFIG.standard_steps
        assert 0 <= result.final_accuracy <= 1
        assert len(result.loss_curve) == result.steps
        assert result.eval_curve[-1].step == result.steps
        assert set(result.mean_step_seconds) == {"10Mbps", "100Mbps", "1Gbps"}
        assert result.compression_ratio > 0

    def test_caching_returns_same_object(self, runner):
        a = runner.run("32-bit float", 1.0)
        b = runner.run("32-bit float", 1.0)
        assert a is b

    def test_fraction_changes_steps(self, runner):
        half = runner.run("32-bit float", 0.5)
        assert half.steps == FAST_CONFIG.steps_for_fraction(0.5)

    def test_deterministic_across_runners(self):
        r1 = ExperimentRunner(FAST_CONFIG)
        r2 = ExperimentRunner(FAST_CONFIG)
        a = r1.run("3LC (s=1.00)", 0.5)
        b = r2.run("3LC (s=1.00)", 0.5)
        assert a.final_accuracy == b.final_accuracy
        assert a.compression_ratio == b.compression_ratio

    def test_slower_links_take_longer(self, runner):
        result = runner.run("32-bit float", 1.0)
        assert (
            result.total_seconds["10Mbps"]
            > result.total_seconds["100Mbps"]
            > result.total_seconds["1Gbps"]
        )


class TestEvaluatesEachModelStateOnce:
    """``train`` already evaluates at the last step when ``eval_every``
    divides ``steps``; the runner takes that result instead of recomputing it."""

    @pytest.mark.parametrize(
        "steps, evaluated_at",
        [(6, [3, 6]), (5, [2, 4, 5]), (4, [2, 4])],
        ids=["divides", "remainder", "floor"],
    )
    def test_one_evaluation_per_distinct_step(self, steps, evaluated_at, monkeypatch):
        config = FAST_CONFIG.scaled(standard_steps=steps, eval_points=2, eval_size=16)
        calls = []
        evaluate = ExchangeEngine.evaluate

        def counting(engine, **kwargs):
            calls.append(engine.global_step)
            return evaluate(engine, **kwargs)

        monkeypatch.setattr(ExchangeEngine, "evaluate", counting)
        runner = ExperimentRunner(config)
        result = runner.run("32-bit float")
        assert calls == evaluated_at
        assert [e.step for e in result.eval_curve] == evaluated_at
        final = result.eval_curve[-1]
        assert (result.final_accuracy, result.final_loss) == (
            final.test_accuracy,
            final.test_loss,
        )

        # What the runner used to do: evaluate the unchanged model again
        # after training and keep the result only when its step was new.
        engine = ExchangeEngine(
            config.model_factory(),
            runner._dataset,
            make_compressor("32-bit float", seed=config.scheme_seed),
            config.schedule(steps),
            config,
        )
        evals = engine.train(steps, eval_every=steps // 2, test_size=16)
        again = engine.evaluate(test_size=16)
        if evals[-1].step != again.step:
            evals.append(again)
        assert result.eval_curve == tuple(evals) and again == final


class TestNanWeightNeverReadsFinite:
    """A model with one NaN weight used to finish with loss ~ln(10): ReLU
    mapped every NaN activation to 0. Now the quantum that computed the
    non-finite loss raises, naming its step, worker and value."""

    @staticmethod
    def poison(monkeypatch, builder, parameter):
        build = getattr(config_module, builder)

        def poisoned(*args, **kwargs):
            model = build(*args, **kwargs)
            weights = {p.name: p for p in model.parameters()}
            weights[parameter].data.flat[0] = np.nan
            return model

        monkeypatch.setattr(config_module, builder, poisoned)

    @pytest.mark.parametrize(
        "family, builder, parameter",
        [
            ("resnet", "build_resnet", "stage0/block0/conv1/weight"),
            ("mlp", "build_mlp", "fc0/weight"),
        ],
    )
    def test_run_raises_at_the_first_non_finite_loss(
        self, monkeypatch, family, builder, parameter
    ):
        self.poison(monkeypatch, builder, parameter)
        config = FAST_CONFIG.scaled(
            standard_steps=4, eval_size=16, model_family=family
        )
        runner = ExperimentRunner(config)
        with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=r"training loss nan at step 0 from worker 0: has training diverged\?",
        ):
            runner.run("32-bit float")

    @pytest.mark.parametrize(
        "overrides, where",
        [
            (dict(topology="hier", num_workers=4), "rack 0 (worker 0)"),
            (dict(sync_mode="async"), "worker "),
        ],
    )
    def test_the_message_names_the_unit(self, monkeypatch, overrides, where):
        self.poison(monkeypatch, "build_mlp", "fc0/weight")
        config = FAST_CONFIG.scaled(
            standard_steps=4, eval_size=16, model_family="mlp", **overrides
        )
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as error:
            ExperimentRunner(config).run("32-bit float")
        assert f"from {where}" in str(error.value)


class TestSimOverlap:
    """--sim-overlap end to end: runner, table column, serialization."""

    @pytest.fixture(scope="class")
    def sim_runner(self):
        return ExperimentRunner(
            FAST_CONFIG.scaled(standard_steps=8, sim_overlap=True)
        )

    def test_runner_populates_achieved_overlap(self, sim_runner):
        result = sim_runner.run("3LC (s=1.00)", 1.0)
        assert result.achieved_overlap is not None
        assert set(result.achieved_overlap) == {"10Mbps", "100Mbps", "1Gbps"}
        assert all(0.0 <= v <= 1.0 for v in result.achieved_overlap.values())
        assert all(v > 0 for v in result.mean_step_seconds.values())

    def test_table1_gains_overlap_column(self, sim_runner):
        rows, text = table1(sim_runner, ("32-bit float", "3LC (s=1.00)"))
        assert "Ovl@10M" in text
        assert "[simulated per-layer overlap]" in text
        assert all(r.achieved_overlap is not None for r in rows)

    def test_achieved_overlap_round_trips(self, sim_runner):
        from repro.harness.results_io import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = sim_runner.run("3LC (s=1.00)", 1.0)
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.achieved_overlap == result.achieved_overlap

    def test_analytic_runner_has_no_overlap_column(self, runner):
        rows, text = table1(runner, ("32-bit float", "3LC (s=1.00)"))
        assert "Ovl@10M" not in text
        assert all(r.achieved_overlap is None for r in rows)

    def test_analytic_achieved_overlap_is_none_and_round_trips(self, runner):
        """Regression: 'not simulated' must stay None — not 0.0, not {} —
        through the JSON archive, including documents missing the keys."""
        from repro.harness.results_io import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = runner.run("32-bit float", 1.0)
        assert result.achieved_overlap is None
        assert result.per_worker_throughput is None
        assert result.staleness_distribution is None
        assert result.link_utilization is None
        document = run_result_to_dict(result)
        assert document["achieved_overlap"] is None
        restored = run_result_from_dict(document)
        assert restored.achieved_overlap is None
        assert restored.per_worker_throughput is None
        assert restored.staleness_distribution is None
        assert restored.link_utilization is None
        # Archives written before these fields existed load as None too.
        for key in (
            "achieved_overlap",
            "per_worker_throughput",
            "staleness_distribution",
            "link_utilization",
        ):
            document.pop(key, None)
        legacy = run_result_from_dict(document)
        assert legacy.achieved_overlap is None
        assert legacy.staleness_distribution is None


class TestEventDrivenSimOverlap:
    """--sim-overlap with async/SSP: event-driven replay end to end."""

    @pytest.fixture(scope="class")
    def async_runner(self):
        return ExperimentRunner(
            FAST_CONFIG.scaled(standard_steps=8, sim_overlap=True, sync_mode="async")
        )

    def test_runner_populates_event_driven_reports(self, async_runner):
        result = async_runner.run("3LC (s=1.00)", 1.0)
        assert result.achieved_overlap is not None
        assert set(result.achieved_overlap) == {"10Mbps", "100Mbps", "1Gbps"}
        assert all(0.0 <= v <= 1.0 for v in result.achieved_overlap.values())
        assert all(v > 0 for v in result.mean_step_seconds.values())
        throughput = result.per_worker_throughput["10Mbps"]
        assert set(throughput) == set(range(FAST_CONFIG.num_workers))
        assert all(v > 0 for v in throughput.values())
        assert sum(result.staleness_distribution.values()) == result.steps
        utilization = result.link_utilization["10Mbps"]
        assert set(utilization) == {"server"}
        assert 0.0 < utilization["server"] <= 1.0

    def test_table1_reports_measured_overlap_for_async(self, async_runner):
        rows, text = table1(async_runner, ("32-bit float", "3LC (s=1.00)"))
        assert "Ovl@10M" in text
        assert "[simulated event-driven updates]" in text
        assert all(r.achieved_overlap is not None for r in rows)

    def test_event_reports_round_trip(self, async_runner):
        from repro.harness.results_io import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = async_runner.run("3LC (s=1.00)", 1.0)
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.achieved_overlap == result.achieved_overlap
        assert restored.per_worker_throughput == result.per_worker_throughput
        assert restored.staleness_distribution == result.staleness_distribution
        assert restored.link_utilization == result.link_utilization

    def test_ssp_runner_simulates_with_staleness_bound(self):
        runner = ExperimentRunner(
            FAST_CONFIG.scaled(
                standard_steps=6, sim_overlap=True, sync_mode="ssp", staleness=1
            )
        )
        result = runner.run("3LC (s=1.00)", 1.0)
        assert result.achieved_overlap is not None
        assert sum(result.staleness_distribution.values()) == result.steps

    def test_engine_fields_are_declared_once(self):
        """``ExperimentConfig`` inherits every engine field and declares
        none again, and the engine keeps the config it is handed."""
        engine_fields = {f.name for f in fields(EngineConfig)}
        own = set(vars(ExperimentConfig)["__annotations__"])
        assert own and not own & engine_fields
        assert engine_fields < {f.name for f in fields(ExperimentConfig)}
        assert DEFAULT_CONFIG.batch_size == EngineConfig().batch_size == 16
        config = FAST_CONFIG
        engine = ExchangeEngine(
            config.model_factory(),
            config.dataset(),
            make_compressor("32-bit float", seed=0),
            config.schedule(4),
            config,
        )
        assert engine.engine_config is config

    def test_ssp_config_requires_staleness(self):
        with pytest.raises(ValueError, match="staleness"):
            FAST_CONFIG.scaled(sync_mode="ssp")

    @pytest.mark.parametrize(
        "overrides, offender",
        [
            (dict(sync_mode="async", staleness=2), "got 2"),
            (dict(sync_mode="async", backup_workers=1), "backup_workers=1"),
            (dict(topology="sharded", num_shards=0), "got 0"),
        ],
    )
    def test_engine_rules_fail_at_config_construction(self, overrides, offender):
        """EngineConfig is the one rule set: combinations only the engine
        used to reject (at the first run, after dataset synthesis) now fail
        when the ExperimentConfig is built, naming the offending value."""
        with pytest.raises(ValueError, match=offender):
            FAST_CONFIG.scaled(**overrides)

    def test_cli_simulated_async_sweep_drops_deferring_schemes(self, capsys):
        from repro.harness.cli import main

        assert (
            main(
                [
                    "fig7", "--fast", "--steps", "4",
                    "--sync-mode", "async", "--sim-overlap",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 local steps" not in out
        assert "3LC (s=1.00)" in out

    def test_cli_plain_async_sweep_keeps_deferring_schemes(self, capsys):
        # Without --sim-overlap no event stream is recorded; deferring
        # schemes train fine under async and keep their rows.
        from repro.harness.cli import main

        assert (
            main(["fig7", "--fast", "--steps", "4", "--sync-mode", "async"]) == 0
        )
        out = capsys.readouterr().out
        assert "2 local steps" in out
        assert "3LC (s=1.00)" in out


class TestHierarchicalHarness:
    """--topology hier end to end: runner, Table 1 split, CLI validation."""

    @pytest.fixture(scope="class")
    def hier_runner(self):
        return ExperimentRunner(
            FAST_CONFIG.scaled(
                num_workers=4,
                topology="hier",
                racks=2,
                rack_size=2,
                standard_steps=6,
                sim_overlap=True,
            )
        )

    def test_runner_reports_per_tier_utilization(self, hier_runner):
        result = hier_runner.run("3LC (s=1.00)", 1.0)
        assert result.achieved_overlap is not None
        assert result.link_utilization is not None
        utilization = result.link_utilization["10Mbps"]
        assert set(utilization) == {
            "rack0", "rack1", "cross:rack0", "cross:rack1",
        }
        # The 10x-scarcer core is the busy tier.
        assert utilization["cross:rack0"] > utilization["rack0"]
        meter = result.traffic
        assert meter.total_cross_rack_bytes > 0
        assert (
            meter.total_intra_rack_bytes + meter.total_cross_rack_bytes
            == meter.total_wire_bytes
        )

    def test_table1_gains_traffic_split_columns(self, hier_runner):
        rows, text = table1(hier_runner, ("32-bit float", "3LC (s=1.00)"))
        assert "Intra(MB/step)" in text and "Cross(MB/step)" in text
        assert "Ovl@10M" in text
        for row in rows:
            assert row.intra_rack_mb is not None and row.intra_rack_mb > 0
            assert row.cross_rack_mb is not None and row.cross_rack_mb > 0
        # Compression shrinks the scarce tier.
        assert rows[1].cross_rack_mb < rows[0].cross_rack_mb

    def test_flat_table1_has_no_split_columns(self, runner):
        _, text = table1(runner, ("32-bit float", "3LC (s=1.00)"))
        assert "Intra(MB/step)" not in text

    def test_traffic_split_round_trips(self, hier_runner):
        from repro.harness.results_io import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = hier_runner.run("3LC (s=1.00)", 1.0)
        restored = run_result_from_dict(run_result_to_dict(result))
        assert [s.intra_rack_bytes for s in restored.traffic.steps] == [
            s.intra_rack_bytes for s in result.traffic.steps
        ]
        assert [s.cross_rack_bytes for s in restored.traffic.steps] == [
            s.cross_rack_bytes for s in result.traffic.steps
        ]
        assert restored.link_utilization == result.link_utilization

    def test_event_driven_hier_runner(self):
        runner = ExperimentRunner(
            FAST_CONFIG.scaled(
                num_workers=4,
                topology="hier",
                racks=2,
                rack_size=2,
                standard_steps=6,
                sim_overlap=True,
                sync_mode="async",
            )
        )
        result = runner.run("3LC (s=1.00)", 1.0)
        # Scheduling units are racks: two throughput keys, not four.
        throughput = result.per_worker_throughput["10Mbps"]
        assert set(throughput) == {0, 1}
        utilization = result.link_utilization["10Mbps"]
        assert set(utilization) == {
            "rack0", "rack1", "cross:rack0", "cross:rack1",
        }
        assert sum(result.staleness_distribution.values()) == result.steps

    def test_config_rejects_mismatched_rack_shape(self):
        with pytest.raises(ValueError, match="not divisible into"):
            FAST_CONFIG.scaled(topology="hier", racks=2, rack_size=3)
        with pytest.raises(ValueError, match="cross_bw_fraction"):
            FAST_CONFIG.scaled(
                num_workers=4, topology="hier", cross_bw_fraction=0.0
            )

    def test_cli_flag_validation_names_offending_values(self, capsys):
        from repro.harness.cli import main

        cases = [
            (["table1", "--fast", "--racks", "3"], "--racks 3 requires --topology hier"),
            (
                ["table1", "--fast", "--rack-size", "2"],
                "--rack-size 2 requires --topology hier",
            ),
            (
                ["table1", "--fast", "--cross-bw", "0.5"],
                "--cross-bw 0.5 requires --topology hier",
            ),
            (
                ["table1", "--fast", "--shards", "4", "--topology", "ring"],
                "--shards 4 requires --topology sharded (got --topology ring)",
            ),
            (
                ["table1", "--fast", "--staleness", "2"],
                "--staleness 2 requires --sync-mode ssp (got --sync-mode bsp)",
            ),
            (
                ["table1", "--fast", "--topology", "hier", "--racks", "3"],
                "not divisible into 3 racks",
            ),
            (
                # racks * rack_size == num_workers, but a 1-worker "rack"
                # has no ring: must fail at parse time, not mid-run.
                [
                    "table1", "--fast", "--topology", "hier",
                    "--racks", "2", "--rack-size", "1",
                ],
                "rack ring needs >= 2",
            ),
            (
                ["table1", "--fast", "--fuse", "--topology", "ring"],
                "raw gradients per hop; fused buckets only apply to point-to-point "
                "push/pull framing (set by --topology ring, --fuse)",
            ),
            (
                ["table1", "--fast", "--bucket-elements", "512"],
                "--bucket-elements 512 requires --fuse",
            ),
            (
                ["table1", "--fast", "--fuse", "--bucket-elements", "0"],
                "bucket_elements must be >= 1 (set by --bucket-elements 0)",
            ),
            (
                ["table1", "--fast", "--fuse-lossy"],
                "--fuse-lossy requires --fuse",
            ),
        ]
        for argv, fragment in cases:
            with pytest.raises(SystemExit):
                main(argv)
            assert fragment in capsys.readouterr().err

    def test_cli_hier_drops_deferring_schemes(self, capsys):
        from repro.harness.cli import main

        assert (
            main(
                [
                    "fig7", "--fast", "--steps", "4", "--workers", "4",
                    "--topology", "hier", "--racks", "2", "--rack-size", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 local steps" not in out
        assert "3LC (s=1.00)" in out


class TestRingSchemeFilter:
    def test_deferring_schemes_flagged(self):
        from repro.compression.registry import make_compressor

        assert make_compressor("2 local steps", seed=0).defers_transmission
        assert not make_compressor("3LC (s=1.00)", seed=0).defers_transmission
        assert not make_compressor("32-bit float", seed=0).defers_transmission

    def test_cli_fig7_on_ring_drops_deferring_schemes(self, capsys):
        from repro.harness.cli import main

        assert main(["fig7", "--fast", "--steps", "4", "--topology", "ring"]) == 0
        out = capsys.readouterr().out
        assert "2 local steps" not in out
        assert "3LC (s=1.00)" in out


class TestTables:
    def test_table1_rows_and_shape(self, runner):
        schemes = ("32-bit float", "3LC (s=1.00)", "2 local steps")
        rows, text = table1(runner, schemes)
        assert [r.scheme for r in rows] == list(schemes)
        baseline = rows[0]
        assert baseline.speedup_10mbps == pytest.approx(1.0)
        assert baseline.accuracy_difference == 0.0
        # 3LC must beat the baseline on a slow link even at toy scale.
        assert rows[1].speedup_10mbps > 1.0
        assert "Table 1" in text

    def test_table1_requires_baseline(self, runner):
        with pytest.raises(ValueError, match="baseline"):
            table1(runner, ("3LC (s=1.00)",))

    def test_table2_rows(self, runner):
        rows, text = table2(runner)
        assert [row.scheme for row in rows] == list(TABLE2_SCHEMES)
        no_zre, with_zre = rows[:2]
        # ZRE can only shrink traffic.
        assert with_zre.compression_ratio >= no_zre.compression_ratio
        assert no_zre.bits_per_value == pytest.approx(
            32.0 / no_zre.compression_ratio, rel=1e-6
        )
        assert "Table 2" in text


class TestFigures:
    def test_time_accuracy_figure(self, runner):
        fig = figure_time_accuracy(
            runner, "10Mbps", ("32-bit float", "3LC (s=1.00)"), (0.5, 1.0)
        )
        assert len(fig.series) == 2
        for series in fig.series:
            assert len(series.points) == 2
            times = [p[0] for p in series.points]
            assert times == sorted(times)  # larger budget, more minutes
        assert "10Mbps" in fig.text

    def test_figure7(self, runner):
        loss_fig, acc_fig = figure7_curves(runner, ("32-bit float", "3LC (s=1.00)"))
        assert len(loss_fig.series) == 2
        assert len(loss_fig.series[0].points) == FAST_CONFIG.standard_steps
        assert all(len(s.points) >= 1 for s in acc_fig.series)

    def test_figure8(self, runner):
        fig = figure8_sparsity(
            runner, "10Mbps", ("3LC (s=1.00)",), (1.0,)
        )
        assert "sparsity" in fig.name

    def test_figure9(self, runner):
        fig = figure9_compressed_size(runner, "3LC (s=1.00)")
        no_zre, push, pull = fig.series
        assert all(y == 1.6 for _, y in no_zre.points)
        # ZRE keeps compressed sizes at or below the quartic 1.6 bits
        # (plus small header overhead on tiny test tensors).
        assert all(y <= 2.5 for _, y in push.points)
        assert len(push.points) == FAST_CONFIG.standard_steps


class TestAsciiPlot:
    def test_renders_points_and_legend(self):
        s = Series.from_xy("demo", [0, 1, 2], [0, 1, 4])
        out = render_plot([s], title="T", x_label="X", y_label="Y")
        assert "T" in out and "demo" in out
        assert "o" in out

    def test_degenerate_single_point(self):
        out = render_plot([Series("p", ((1.0, 1.0),))])
        assert "p" in out

    def test_canvas_is_72_by_20(self):
        out = render_plot([Series.from_xy("s", [0, 1], [0, 1])])
        rows = [line for line in out.splitlines() if line.startswith("|")]
        assert len(rows) == 20
        assert {len(row) for row in rows} == {72 + 2}

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            Series.from_xy("x", [1], [1, 2])


class TestCli:
    def test_table2_fast(self, capsys):
        from repro.harness.cli import main

        code = main(["table2", "--fast", "--steps", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_fig9_fast(self, capsys):
        from repro.harness.cli import main

        assert main(["fig9", "--fast", "--steps", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        # The footer shows the input memo; the CLI keeps no replay cache.
        assert re.search(
            r"\ninput memo: \d+ inputs \d+\.\d MiB \(\d+ hits / \d+ misses\)\n",
            out,
        )
        assert "replay cache" not in out.lower()
