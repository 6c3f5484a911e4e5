"""The CI workflow loads: a step that does not parse disables every step."""

import re
import shlex
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"


def steps():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step for job in jobs.values() for step in job["steps"]]


def test_every_step_parses_and_has_a_command():
    assert all("uses" in step or step["run"].strip() for step in steps())


def test_benchmark_contract_assertions_compile():
    contracts = [s for s in steps() if s.get("name", "").startswith("Benchmark contract")]
    assert len(contracts) == 9
    for step in contracts:
        (snippet,) = re.findall(r'python3 -c "(.*)"$', step["run"].strip(), re.S)
        compile(snippet, step["name"], "exec")
        assert "--workload" in step["run"] and "r['failed'] == 0" in snippet


COMMAND = re.compile(r"python -m (repro\.harness\.cli|repro\.tuner)\s+(.+)$")


def test_cli_command_lines_parse_and_build_their_configs(tmp_path, monkeypatch):
    """Every harness / tuner command line CI runs, through the parser and
    config construction only (no training): a renamed flag or a tightened
    rule that would break a CI step fails here first."""
    from repro.harness.cli import parse_config
    from repro.harness.config import FAST_CONFIG
    from repro.tuner import cli as tuner_cli
    from repro.tuner.artifact import PLAN_SCHEMA, save_plan
    from repro.tuner.space import default_space

    # The plan an earlier CI line (bench_tuner --plan-out) writes.
    monkeypatch.chdir(tmp_path)
    space = default_space(FAST_CONFIG.scaled(model_family="mlp", num_workers=4))
    plan = space.default_point("3LC (s=1.00)").as_dict()
    save_plan(
        "plan_ci.json",
        {"schema": PLAN_SCHEMA, "plan": plan, "objective": {}, "search": {}},
    )

    seen = set()
    for step in steps():
        for line in step.get("run", "").splitlines():
            match = COMMAND.search(line)
            if match is None:
                continue
            module, argv = match[1], shlex.split(match[2])
            seen.add(module)
            if module == "repro.tuner":
                args = tuner_cli.build_parser().parse_args(argv)
                default_space(tuner_cli.base_config(args))
            else:
                parse_config(argv)
    assert seen == {"repro.harness.cli", "repro.tuner"}
