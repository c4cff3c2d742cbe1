"""Table II: successive sojourn times in S and P.

``E(T_S,n)`` and ``E(T_P,n)`` for n in {1, 2} (Relations (7), (8)) at
k = 1, d = 90 %, alpha = delta, mu in {0, 10, 20, 30} %.  The paper's
headline observation: the chain barely alternates --
``E(T_S) ~= E(T_S,1)`` and ``E(T_P) ~= E(T_P,1)``.

The published cell ``E(T_P,2) = 0.26`` at mu = 20 % breaks the
monotone pattern of its row (0.004 at 10 %, 0.075 at 30 %); our
computation gives ~0.026, pointing to a typo (dropped zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import (
    TABLE2_D,
    TABLE2_MU_GRID,
    analysis_runner,
    analytic_spec,
    mu_percent,
)
from repro.analysis.tables import render_table
from repro.scenario import ScenarioSpec, SweepRunner

#: Published values keyed by mu: (E(T_S,1), E(T_S,2), E(T_P,1), E(T_P,2)).
#: ``None`` marks the suspect mu=20 % polluted-second-sojourn cell.
PAPER_TABLE2: dict[float, tuple[float, float, float, float | None]] = {
    0.0: (12.0, 0.0, 0.0, 0.0),
    0.10: (12.085, 0.013, 0.099, 0.004),
    0.20: (11.890, 0.033, 0.558, None),  # printed "0.26"; see docstring
    0.30: (11.570, 0.043, 1.611, 0.075),
}


@dataclass(frozen=True)
class Table2Row:
    """One mu column of the paper's table."""

    mu: float
    safe_first: float
    safe_second: float
    polluted_first: float
    polluted_second: float
    total_safe: float
    total_polluted: float


def table2_specs(
    mu_grid: tuple[float, ...] = TABLE2_MU_GRID,
) -> list[ScenarioSpec]:
    """Table II's grid as declarative scenario points."""
    return [
        analytic_spec(
            f"table2[mu={mu}]", metrics="sojourns", k=1, mu=mu, d=TABLE2_D
        )
        for mu in mu_grid
    ]


def compute_table2(runner: SweepRunner | None = None) -> list[Table2Row]:
    """Evaluate Relations (7) and (8) for n = 1, 2 plus the totals."""
    results = analysis_runner(runner).sweep(table2_specs())
    rows = []
    for mu, result in zip(TABLE2_MU_GRID, results):
        metrics = result.metrics
        rows.append(
            Table2Row(
                mu=mu,
                safe_first=metrics["E(T_S,1)"],
                safe_second=metrics["E(T_S,2)"],
                polluted_first=metrics["E(T_P,1)"],
                polluted_second=metrics["E(T_P,2)"],
                total_safe=metrics["E(T_S)"],
                total_polluted=metrics["E(T_P)"],
            )
        )
    return rows


def render_table2(rows: list[Table2Row]) -> str:
    """Paper-shaped successive-sojourn table."""
    body = []
    for row in rows:
        paper = PAPER_TABLE2.get(row.mu)
        body.append(
            [
                f"mu={mu_percent(row.mu)}%",
                row.safe_first,
                paper[0] if paper else "-",
                row.safe_second,
                paper[1] if paper else "-",
                row.polluted_first,
                paper[2] if paper else "-",
                row.polluted_second,
                (
                    paper[3]
                    if paper and paper[3] is not None
                    else "(paper: 0.26, suspect)"
                ),
            ]
        )
    return render_table(
        [
            "mu",
            "E(T_S,1)",
            "paper",
            "E(T_S,2)",
            "paper",
            "E(T_P,1)",
            "paper",
            "E(T_P,2)",
            "paper",
        ],
        body,
        title="Table II: k=1, C=7, Delta=7, d=90%, alpha=delta",
    )


def alternation_is_negligible(
    rows: list[Table2Row], tolerance: float = 0.05
) -> bool:
    """The paper's reading: first sojourns carry almost all the mass.

    Checks ``E(T_S,1) >= (1 - tolerance) E(T_S)`` and the analogous
    polluted inequality on every row (skipping zero totals).
    """
    for row in rows:
        if row.total_safe > 0 and row.safe_first < (1 - tolerance) * row.total_safe:
            return False
        if (
            row.total_polluted > 1e-9
            and row.polluted_first < (1 - tolerance) * row.total_polluted
        ):
            return False
    return True
