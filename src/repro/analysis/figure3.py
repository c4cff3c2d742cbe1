"""Figure 3: expected events in safe/polluted states before absorption.

Four panels: protocol_1 and protocol_C (C = 7), each under the initial
distributions ``delta`` (left column of the paper) and ``beta`` (right
column), sweeping ``mu`` over 0..30 % and ``d`` over {0, 30, 80, 90} %.
Each bar pair is ``E(T_S^(k))`` (Relation (5)) and ``E(T_P^(k))``
(Relation (6)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import (
    D_GRID,
    MU_GRID,
    analysis_runner,
    analytic_spec,
    mu_percent,
)
from repro.analysis.tables import render_table
from repro.scenario import ScenarioSpec, SweepRunner


@dataclass(frozen=True)
class Figure3Cell:
    """One bar pair of one panel."""

    k: int
    initial: str
    d: float
    mu: float
    expected_safe: float
    expected_polluted: float


def figure3_specs(
    k_values: tuple[int, ...] = (1, 7),
    initials: tuple[str, ...] = ("delta", "beta"),
    mu_grid: tuple[float, ...] = MU_GRID,
    d_grid: tuple[float, ...] = D_GRID,
) -> list[tuple[ScenarioSpec, tuple[int, str, float, float]]]:
    """The four panels' grid as (spec, (k, initial, d, mu)) points."""
    points = []
    for k in k_values:
        for initial in initials:
            for d in d_grid:
                for mu in mu_grid:
                    spec = analytic_spec(
                        f"figure3[k={k},alpha={initial},d={d},mu={mu}]",
                        initial=initial,
                        k=k,
                        mu=mu,
                        d=d,
                    )
                    points.append((spec, (k, initial, d, mu)))
    return points


def compute_figure3(
    k_values: tuple[int, ...] = (1, 7),
    initials: tuple[str, ...] = ("delta", "beta"),
    mu_grid: tuple[float, ...] = MU_GRID,
    d_grid: tuple[float, ...] = D_GRID,
    runner: SweepRunner | None = None,
) -> list[Figure3Cell]:
    """Evaluate every bar of the four panels through the sweep runner."""
    points = figure3_specs(k_values, initials, mu_grid, d_grid)
    results = analysis_runner(runner).sweep([spec for spec, _ in points])
    return [
        Figure3Cell(
            k=k,
            initial=initial,
            d=d,
            mu=mu,
            expected_safe=result.metrics["E(T_S)"],
            expected_polluted=result.metrics["E(T_P)"],
        )
        for (_, (k, initial, d, mu)), result in zip(points, results)
    ]


def render_figure3(cells: list[Figure3Cell]) -> str:
    """One table per (protocol, initial) panel, rows = (d, mu)."""
    blocks = []
    panels: dict[tuple[int, str], list[Figure3Cell]] = {}
    for cell in cells:
        panels.setdefault((cell.k, cell.initial), []).append(cell)
    for (k, initial), panel in sorted(panels.items()):
        rows = [
            [
                f"{round(100 * cell.d)}%",
                f"mu={mu_percent(cell.mu)}",
                cell.expected_safe,
                cell.expected_polluted,
            ]
            for cell in panel
        ]
        blocks.append(
            render_table(
                ["d", "mu", "E(T_S)", "E(T_P)"],
                rows,
                title=(
                    f"Figure 3 panel: protocol_{k}, alpha={initial} "
                    f"(C=7, Delta=7)"
                ),
            )
        )
    return "\n\n".join(blocks)


def shape_checks(cells: list[Figure3Cell]) -> dict[str, bool]:
    """The paper's qualitative lessons, evaluated on the computed cells.

    * ``delta_safer_than_beta``: starting clean yields at least as much
      safe time and never more polluted time than starting contaminated.
    * ``protocol1_dominates``: ``E(T_S^(1)) >= E(T_S^(7))`` and
      ``E(T_P^(1)) <= E(T_P^(7))`` point-wise (lesson ii).
    * ``pollution_grows_with_d``: for mu > 0, ``E(T_P)`` is
      non-decreasing in d (lesson iii).
    * ``failure_free_invariant``: mu = 0 implies
      ``E(T_S) + E(T_P) = floor(Delta^2 / 4) = 12`` under delta.
    """
    index = {
        (c.k, c.initial, c.d, c.mu): c for c in cells
    }
    tolerance = 1e-7

    def check_protocol_dominance() -> bool:
        for (k, initial, d, mu), cell in index.items():
            other = index.get((7, initial, d, mu))
            if k != 1 or other is None:
                continue
            if cell.expected_safe < other.expected_safe - 1e-6:
                return False
            if cell.expected_polluted > other.expected_polluted + 1e-6:
                return False
        return True

    def check_pollution_monotone_in_d() -> bool:
        for k in (1, 7):
            for initial in ("delta", "beta"):
                for mu in MU_GRID:
                    if mu == 0.0:
                        continue
                    values = [
                        index[(k, initial, d, mu)].expected_polluted
                        for d in D_GRID
                        if (k, initial, d, mu) in index
                    ]
                    if any(
                        later < earlier - 1e-6
                        for earlier, later in zip(values, values[1:])
                    ):
                        return False
        return True

    def check_failure_free() -> bool:
        for (k, initial, d, mu), cell in index.items():
            if mu != 0.0 or initial != "delta":
                continue
            total = cell.expected_safe + cell.expected_polluted
            if abs(total - 12.0) > tolerance:
                return False
        return True

    def check_delta_vs_beta() -> bool:
        for (k, initial, d, mu), cell in index.items():
            if initial != "delta":
                continue
            other = index.get((k, "beta", d, mu))
            if other is None:
                continue
            if cell.expected_polluted > other.expected_polluted + 1e-6:
                return False
        return True

    return {
        "protocol1_dominates": check_protocol_dominance(),
        "pollution_grows_with_d": check_pollution_monotone_in_d(),
        "failure_free_invariant": check_failure_free(),
        "delta_safer_than_beta": check_delta_vs_beta(),
    }
