"""Experiment harness: configs, runner, and table/figure regeneration."""

from repro.harness.config import DEFAULT_CONFIG, FAST_CONFIG, ExperimentConfig
from repro.harness.figures import (
    BUDGET_FRACTIONS,
    FigureData,
    figure7_curves,
    figure8_sparsity,
    figure9_compressed_size,
    figure_time_accuracy,
)
from repro.harness.methodology import TwoPhaseEstimate, two_phase_estimate
from repro.harness.results_io import load_results, save_results
from repro.harness.runner import ExperimentRunner, RunResult
from repro.harness.tables import (
    Table1Row,
    Table2Row,
    table1,
    table2,
)

__all__ = [
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "FAST_CONFIG",
    "ExperimentRunner",
    "RunResult",
    "Table1Row",
    "Table2Row",
    "table1",
    "table2",
    "FigureData",
    "figure_time_accuracy",
    "figure7_curves",
    "figure8_sparsity",
    "figure9_compressed_size",
    "BUDGET_FRACTIONS",
    "TwoPhaseEstimate",
    "two_phase_estimate",
    "save_results",
    "load_results",
]
