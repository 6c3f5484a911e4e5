"""The claims ledger (``benchmarks/claims.py``) at its smoke scale.

Every row with a smoke band runs here and must hold; the rows with only a
full band run in ``python benchmarks/claims.py`` (ARCHITECTURE.md, "Claims
ledger").
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ledger():
    spec = importlib.util.spec_from_file_location("claims", ROOT / "benchmarks/claims.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


claims = load_ledger()
BY_ID = {claim.id: claim for claim in claims.LEDGER}


@pytest.mark.parametrize(
    "claim", [c for c in claims.LEDGER if "smoke" in c.bands], ids=lambda c: c.id
)
def test_every_smoke_row_holds(claim):
    verdict = claims.judge(claim, "smoke")
    assert verdict.verdict == "holds", (claim.id, claim.bands["smoke"].text, verdict.measured)


def test_row_ids_are_unique_and_bands_name_a_scale():
    assert len(BY_ID) == len(claims.LEDGER)
    assert all(set(claim.bands) <= {"smoke", "full"} for claim in claims.LEDGER)


def test_figure7_progress_compares_disjoint_windows():
    """An 8-point curve's first and last thirds do not overlap: a falling
    curve holds, a flat one misses (two equal windows read 2.428 < 2.428)."""
    band = BY_ID["fig7.loss_falls"].bands["full"]
    falling = [2.43, 2.40, 2.31, 2.25, 2.20, 2.12, 2.05, 2.01]
    assert band.holds(claims.thirds_ratio(falling))
    assert not band.holds(claims.thirds_ratio([2.428] * 8))


def test_a_miss_fails_the_run_and_an_unbanded_row_does_not(monkeypatch, capsys):
    rows = [
        claims.Claim("a", "§0", "holds", "m", lambda s: 1.0, {"smoke": claims.band("<", 2)}),
        claims.Claim("b", "§0", "full only", "m", lambda s: 9.0, {"full": claims.band("<", 2)}),
    ]
    monkeypatch.setattr(claims, "LEDGER", rows)
    assert claims.main(["--smoke"]) == 0
    assert "| b | §0 | full only | m | - | 9 | no band at smoke |" in capsys.readouterr().out
    assert claims.main([]) == 1
    assert "| b | §0 | full only | m | < 2 | 9 | MISSES |" in capsys.readouterr().out
    rows[1:] = [claims.Claim("c", "§0", "breaks", "m", lambda s: 1 / 0, {})]
    assert claims.main(["--smoke"]) == 1
    assert "| c | §0 | breaks | m | - | ZeroDivisionError: division by zero | ERROR |" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("s190_best", [True, False])
def test_s190_rows_miss_when_s190_is_the_most_accurate(monkeypatch, s190_best):
    """``table1.s190_accuracy`` and ``fig8.s190_not_best`` compare s=1.90 with
    the other designs only, so each can miss."""
    accuracy = {"3LC (s=1.00)": 0.80, "3LC (s=1.50)": 0.78, "3LC (s=1.75)": 0.77,
                "3LC (s=1.90)": 0.85 if s190_best else 0.70}
    monkeypatch.setattr(claims, "t1", lambda s: {
        name: SimpleNamespace(accuracy=a) for name, a in accuracy.items()})
    monkeypatch.setattr(claims, "fig8", lambda s: {
        name: [(1.0, 50.0), (4.0, 100 * a)] for name, a in accuracy.items()})
    for row_id in ("table1.s190_accuracy", "fig8.s190_not_best"):
        verdict = claims.judge(BY_ID[row_id], "full").verdict
        assert verdict == ("MISSES" if s190_best else "holds"), row_id
