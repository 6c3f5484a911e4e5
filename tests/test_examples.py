"""Smoke tests: every example script runs to completion from a shell."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "bits/value" in out
    assert "error feedback" in out


def test_distributed_training():
    out = run_example("distributed_training.py", "--steps", "6", "--workers", "2")
    assert "3LC (s=1.00)" in out
    assert "traffic" in out


def test_custom_scheme():
    out = run_example("custom_scheme.py")
    assert "signSGD" in out
    assert "zero framework changes" in out


def test_overlap_sweep():
    out = run_example("overlap_sweep.py", "--steps", "4")
    assert "per-layer overlap" in out
    assert "10Mbps" in out and "100Mbps" in out and "1Gbps" in out
    assert "measured overlap" in out


def test_hier_sweep():
    out = run_example("hier_sweep.py", "--steps", "4")
    assert "Two-tier step time" in out
    assert "MB intra-rack" in out and "MB cross-rack" in out
    assert "cross util" in out and "rack util" in out
    assert "10Mbps" in out and "1Gbps" in out
