"""Table I: blow-up of the polluted time as d approaches 1.

``E(T_S^(1))`` and ``E(T_P^(1))`` for mu in {0, 10, 20, 30} % and
d in {0.95, 0.99, 0.999}, k = 1, alpha = delta.  The published cell at
(mu = 10 %, d = 0.999) reads 1518 but is inconsistent with the ~7x10^5
blow-up factor of every other column; our computation gives ~1.5x10^6
(the paper cell most likely lost its exponent).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import (
    TABLE1_D_GRID,
    TABLE1_MU_GRID,
    analysis_runner,
    analytic_spec,
    mu_percent,
)
from repro.analysis.tables import render_table
from repro.scenario import ScenarioSpec, SweepRunner

#: The paper's published values, keyed by (mu, d):
#: (E(T_S^(1)), E(T_P^(1))).  ``None`` marks the suspect cell.
PAPER_TABLE1: dict[tuple[float, float], tuple[float, float | None]] = {
    (0.0, 0.95): (12.0, 0.0),
    (0.0, 0.99): (12.0, 0.0),
    (0.0, 0.999): (12.0, 0.0),
    (0.10, 0.95): (12.09, 0.15),
    (0.10, 0.99): (12.08, 2.6),
    (0.10, 0.999): (12.08, None),  # printed "1518"; see module docstring
    (0.20, 0.95): (11.88, 1.14),
    (0.20, 0.99): (11.84, 699.7),
    (0.20, 0.999): (11.83, 511_810_822.0),
    (0.30, 0.95): (11.54, 5.96),
    (0.30, 0.99): (11.48, 12_597.0),
    (0.30, 0.999): (11.47, 9_299_884_149.0),
}


@dataclass(frozen=True)
class Table1Cell:
    """One (mu, d) cell with measured and published values."""

    mu: float
    d: float
    expected_safe: float
    expected_polluted: float
    paper_safe: float | None
    paper_polluted: float | None


def table1_specs() -> list[ScenarioSpec]:
    """Table I's grid as declarative scenario points."""
    return [
        analytic_spec(
            f"table1[mu={mu},d={d}]", k=1, mu=mu, d=d
        )
        for mu in TABLE1_MU_GRID
        for d in TABLE1_D_GRID
    ]


def compute_table1(runner: SweepRunner | None = None) -> list[Table1Cell]:
    """Evaluate every cell of Table I through the sweep runner."""
    results = analysis_runner(runner).sweep(table1_specs())
    grid = [(mu, d) for mu in TABLE1_MU_GRID for d in TABLE1_D_GRID]
    cells = []
    for (mu, d), result in zip(grid, results):
        paper = PAPER_TABLE1.get((mu, d), (None, None))
        cells.append(
            Table1Cell(
                mu=mu,
                d=d,
                expected_safe=result.metrics["E(T_S)"],
                expected_polluted=result.metrics["E(T_P)"],
                paper_safe=paper[0],
                paper_polluted=paper[1],
            )
        )
    return cells


def render_table1(cells: list[Table1Cell]) -> str:
    """Paper-shaped rows with measured-vs-published columns."""
    rows = []
    for cell in cells:
        rows.append(
            [
                f"mu={mu_percent(cell.mu)}%",
                cell.d,
                cell.expected_safe,
                cell.paper_safe if cell.paper_safe is not None else "-",
                cell.expected_polluted,
                (
                    cell.paper_polluted
                    if cell.paper_polluted is not None
                    else "(paper: 1518, suspect)"
                ),
            ]
        )
    return render_table(
        ["mu", "d", "E(T_S) meas", "E(T_S) paper", "E(T_P) meas", "E(T_P) paper"],
        rows,
        title="Table I: k=1, C=7, Delta=7, alpha=delta",
    )


def max_relative_gap(cells: list[Table1Cell]) -> float:
    """Largest relative gap against the published (non-suspect) cells."""
    worst = 0.0
    for cell in cells:
        for measured, paper in (
            (cell.expected_safe, cell.paper_safe),
            (cell.expected_polluted, cell.paper_polluted),
        ):
            if paper is None:
                continue
            if paper == 0.0:
                worst = max(worst, abs(measured))
                continue
            worst = max(worst, abs(measured - paper) / abs(paper))
    return worst
