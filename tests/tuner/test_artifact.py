"""The repro.plan/v1 artifact: validation, round-trips, reproducibility.

The artifact is the tuner's only product, so it gets the strictest
checks: schema validation catches shape drift, save/load round-trips are
lossless, two same-seed tuner runs write byte-identical files, and a
saved plan applied through the harness config reproduces the winning
configuration exactly.
"""

import json

import pytest

from repro.exchange import MODELED
from repro.harness import ExperimentRunner, results_io
from repro.harness.config import FAST_CONFIG
from repro.tuner.artifact import (
    PLAN_SCHEMA,
    apply_plan,
    load_plan,
    plan_to_dict,
    save_plan,
    validate_plan,
)
from repro.tuner.evaluator import PlanEvaluator
from repro.tuner.search import tune
from repro.tuner.space import PlanPoint, default_space

BASE = FAST_CONFIG.scaled(
    model_family="mlp",
    num_workers=4,
    standard_steps=8,
    model_seed=3,
    dataset_seed=3,
    cluster_seed=3,
    scheme_seed=3,
)


@pytest.fixture(scope="module")
def space():
    return default_space(BASE)


def tiny_run(space, seed=0):
    evaluator = PlanEvaluator(space, link="10Mbps")
    return tune(space, evaluator, strategy="random", budget=6, seed=seed)


@pytest.fixture(scope="module")
def artifact(space):
    return plan_to_dict(tiny_run(space), space, link="10Mbps")


class TestValidation:
    def test_well_formed_artifact_passes(self, artifact):
        validate_plan(artifact)
        assert artifact["schema"] == PLAN_SCHEMA

    def test_wrong_schema_rejected(self, artifact):
        bad = dict(artifact, schema="repro.plan/v0")
        with pytest.raises(ValueError, match="unsupported plan schema"):
            validate_plan(bad)

    def test_missing_field_rejected(self, artifact):
        plan = dict(artifact["plan"])
        plan.pop("topology")
        with pytest.raises(ValueError, match="topology"):
            validate_plan(dict(artifact, plan=plan))

    def test_bool_is_not_an_integer(self, artifact):
        plan = dict(artifact["plan"], bucket_elements=True)
        with pytest.raises(ValueError, match="bucket_elements"):
            validate_plan(dict(artifact, plan=plan))

    def test_boundaries_must_be_names(self, artifact):
        plan = dict(artifact["plan"], bucket_boundaries=[1, 2])
        with pytest.raises(ValueError, match="bucket_boundaries"):
            validate_plan(dict(artifact, plan=plan))

    def test_missing_sections_rejected(self, artifact):
        bad = {k: v for k, v in artifact.items() if k != "search"}
        with pytest.raises(ValueError, match="search"):
            validate_plan(bad)


class TestRoundTrip:
    def test_save_load_is_lossless(self, artifact, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(path, artifact)
        assert load_plan(path) == artifact

    def test_results_io_wrappers_round_trip(self, artifact, tmp_path):
        path = tmp_path / "plan.json"
        results_io.save_plan(path, artifact)
        assert results_io.load_plan(path) == artifact

    def test_save_rejects_invalid(self, artifact, tmp_path):
        with pytest.raises(ValueError):
            save_plan(tmp_path / "bad.json", dict(artifact, plan={}))

    def test_retired_strategy_still_loads(self, artifact, tmp_path):
        """Successive halving is gone; a plan it found is still a plan."""
        old = dict(artifact, search=dict(artifact["search"], strategy="halving"))
        path = tmp_path / "plan.json"
        save_plan(path, old)
        assert apply_plan(BASE, load_plan(path)) == apply_plan(BASE, artifact)

    def test_truncated_artifact_rejected(self, artifact, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(artifact)[:15])
        with pytest.raises(ValueError) as error:
            load_plan(path)
        assert type(error.value) is ValueError
        assert str(error.value).startswith(f"{path}: not a plan artifact")

    def test_loaded_plan_rescores_to_the_artifacts_objective(self, artifact, tmp_path):
        """Through the harness, not the evaluator: the modeled clock rides
        on the applied config, so the score is reproduced exactly."""
        path = tmp_path / "plan.json"
        save_plan(path, artifact)
        config, scheme = apply_plan(BASE, load_plan(path))
        assert config.clock is MODELED
        result = ExperimentRunner(config).run(scheme)
        objective = artifact["objective"]
        assert result.mean_step_seconds[objective["link"]] == objective["mean_step_seconds"]

    def test_scored_point_is_the_config_that_runs(self, space, artifact):
        """as_dict -> PlanPoint.from_dict -> apply is the identity on what was
        scored: the point survives the dictionary, its config is the one
        ``apply_plan`` builds, and re-scoring it gives the objective."""
        point = PlanPoint.from_dict(artifact["plan"])
        assert point.as_dict() == artifact["plan"]
        assert space.canonical(point) == point and space.legal_reason(point) is None
        config = space.apply(point)
        assert (config, point.scheme) == apply_plan(BASE, artifact)
        rescored = PlanEvaluator(space, link=artifact["objective"]["link"]).evaluate(point)
        assert rescored.step_seconds == artifact["objective"]["mean_step_seconds"]

    def test_apply_plan_composes_overrides_in_one_construction(self, artifact):
        """A worker count the plan needs is validated together with it."""
        plan = dict(artifact["plan"], topology="hier", racks=3, rack_size=2)
        data = dict(artifact, plan=plan)
        with pytest.raises(ValueError, match="not divisible into 3 racks"):
            apply_plan(BASE, data)
        config, _ = apply_plan(BASE, data, num_workers=6)
        assert (config.num_workers, config.racks) == (6, 3)

    def test_cli_names_the_clock_of_a_loaded_plan(self, artifact, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "plan.json"
        save_plan(path, artifact)
        assert main(["fig9", "--fast", "--steps", "4", "--workers", "4", "--plan", str(path)]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("loaded plan")]
        assert line.endswith("clock=modeled")

    def test_apply_plan_reproduces_winning_config(self, space, artifact):
        applied, scheme = apply_plan(BASE, artifact)
        point = PlanPoint.from_dict(artifact["plan"])
        assert applied == space.apply(point)
        assert scheme == artifact["plan"]["scheme"]
        assert applied.sim_overlap is True


class TestReproducibility:
    def test_same_seed_runs_write_identical_bytes(self, space, tmp_path):
        paths = []
        for run in range(2):
            artifact = plan_to_dict(tiny_run(space, seed=9), space, link="10Mbps")
            path = tmp_path / f"plan{run}.json"
            save_plan(path, artifact)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_artifact_carries_no_wall_clock(self, artifact):
        text = json.dumps(artifact)
        assert "wall" not in text and "timestamp" not in text
