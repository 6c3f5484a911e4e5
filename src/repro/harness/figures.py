"""Regeneration of the paper's figures (4 through 9).

Each ``figure*`` function trains (or reuses) the relevant runs, returns the
underlying data series, and renders an ASCII chart. The series are the
reproduction's ground truth; the claims ledger's ``fig4.*``-``fig9.*`` rows
check their shape against the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.ascii_plot import Series, render_plot
from repro.harness.runner import ExperimentRunner, RunResult

__all__ = [
    "FigureData",
    "figure_time_accuracy",
    "figure7_curves",
    "figure8_sparsity",
    "figure9_compressed_size",
    "OVERVIEW_SCHEMES",
    "FAST_SCHEMES",
    "FIGURE7_SCHEMES",
    "FIGURE8_SCHEMES",
    "BUDGET_FRACTIONS",
]

#: Figure 4a/5a/6a "Overview" design set.
OVERVIEW_SCHEMES: tuple[str, ...] = (
    "32-bit float",
    "8-bit int",
    "Stoch 3-value + QE",
    "MQE 1-bit int",
    "25% sparsification",
    "5% sparsification",
    "2 local steps",
    "3LC (s=1.00)",
    "3LC (s=1.75)",
)

#: Figure 4b/5b/6b "Fast designs" subset.
FAST_SCHEMES: tuple[str, ...] = (
    "Stoch 3-value + QE",
    "MQE 1-bit int",
    "5% sparsification",
    "3LC (s=1.00)",
    "3LC (s=1.75)",
)

#: Figure 7's representative designs.
FIGURE7_SCHEMES: tuple[str, ...] = (
    "32-bit float",
    "MQE 1-bit int",
    "5% sparsification",
    "2 local steps",
    "3LC (s=1.00)",
)

#: Figure 8's sparsity-multiplier sweep.
FIGURE8_SCHEMES: tuple[str, ...] = (
    "3LC (s=1.00)",
    "3LC (s=1.50)",
    "3LC (s=1.75)",
    "3LC (s=1.90)",
)

#: The paper's 25/50/75/100% step budgets.
BUDGET_FRACTIONS: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class FigureData:
    """A rendered figure plus its raw series."""

    name: str
    series: tuple[Series, ...]
    text: str


def figure_time_accuracy(
    runner: ExperimentRunner,
    link_name: str,
    schemes: tuple[str, ...] = OVERVIEW_SCHEMES,
    fractions: tuple[float, ...] = BUDGET_FRACTIONS,
    *,
    figure_name: str | None = None,
) -> FigureData:
    """Figures 4/5/6: total training time vs. test accuracy at one link.

    Each scheme contributes one point per step budget: x is the modelled
    total training time in minutes, y the final test accuracy.
    """
    series = []
    for scheme in schemes:
        points = []
        for fraction in fractions:
            result = runner.run(scheme, fraction)
            points.append(
                (result.total_minutes(link_name), 100 * result.final_accuracy)
            )
        series.append(Series(scheme, tuple(points)))
    name = figure_name or f"Training time vs accuracy @ {link_name}"
    text = render_plot(
        series,
        title=name,
        x_label="Total training time (minutes, modelled)",
        y_label="Test accuracy (%)",
    )
    return FigureData(name, tuple(series), text)


def figure7_curves(
    runner: ExperimentRunner, schemes: tuple[str, ...] = FIGURE7_SCHEMES
) -> tuple[FigureData, FigureData]:
    """Figure 7: runtime training loss (left) and test accuracy (right)."""
    loss_series = []
    acc_series = []
    for scheme in schemes:
        result = runner.run(scheme, 1.0)
        steps = range(len(result.loss_curve))
        loss_series.append(Series.from_xy(scheme, list(steps), result.loss_curve))
        acc_series.append(
            Series(
                scheme,
                tuple(
                    (float(e.step), 100 * e.test_accuracy) for e in result.eval_curve
                ),
            )
        )
    loss_fig = FigureData(
        "Figure 7 (left): training loss",
        tuple(loss_series),
        render_plot(
            loss_series,
            title="Figure 7 (left): training loss",
            x_label="Training steps",
            y_label="Training loss",
        ),
    )
    acc_fig = FigureData(
        "Figure 7 (right): test accuracy",
        tuple(acc_series),
        render_plot(
            acc_series,
            title="Figure 7 (right): test accuracy",
            x_label="Training steps",
            y_label="Test accuracy (%)",
        ),
    )
    return loss_fig, acc_fig


def figure8_sparsity(
    runner: ExperimentRunner,
    link_name: str = "10Mbps",
    schemes: tuple[str, ...] = FIGURE8_SCHEMES,
    fractions: tuple[float, ...] = BUDGET_FRACTIONS,
) -> FigureData:
    """Figure 8: the sparsity-multiplier sweep at 10 Mbps."""
    return figure_time_accuracy(
        runner,
        link_name,
        schemes,
        fractions,
        figure_name=f"Figure 8: 3LC sparsity multiplier sweep @ {link_name}",
    )


def figure9_compressed_size(
    runner: ExperimentRunner, scheme: str = "3LC (s=1.00)", *, stride: int = 1
) -> FigureData:
    """Figure 9: per-step compressed bits per state change, push vs. pull.

    Adds the constant 1.6-bit "Without ZRE" reference line of the paper.
    """
    result = runner.run(scheme, 1.0)
    steps = result.traffic.steps[::stride]
    push = Series(
        "With ZRE (push)",
        tuple((float(s.step), s.push_bits_per_value()) for s in steps),
    )
    pull = Series(
        "With ZRE (pull)",
        tuple((float(s.step), s.pull_bits_per_value()) for s in steps),
    )
    no_zre = Series(
        "Without ZRE",
        tuple((float(s.step), 1.6) for s in steps),
    )
    name = f"Figure 9: compressed size per state change — {scheme}"
    text = render_plot(
        [no_zre, push, pull],
        title=name,
        x_label="Training steps",
        y_label="Bits per state change",
    )
    return FigureData(name, (no_zre, push, pull), text)
