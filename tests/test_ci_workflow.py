"""The CI workflow loads: a step that does not parse disables every step."""

import re
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
    assert len(contracts) == 6
    for step in contracts:
        (snippet,) = re.findall(r'python3 -c "(.*)"$', step["run"].strip(), re.S)
        compile(snippet, step["name"], "exec")
        assert "--workload" in step["run"] and "r['failed'] == 0" in snippet
