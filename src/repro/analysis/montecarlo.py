"""Empirical (Monte-Carlo) columns for the paper's tables and figures.

The analytic modules (:mod:`repro.analysis.table2`,
:mod:`repro.analysis.figure5`, ...) evaluate closed forms; this module
produces the matching *empirical* columns by running the vectorized
batch engine of :mod:`repro.simulation.batch`, so every published
number can be paired with an independent simulation estimate at a
sample size that would be impractical with the scalar per-member
simulator (tens of thousands of trajectories take tens of
milliseconds).

* :func:`empirical_sojourn_columns` -- Table II's quantities
  (``E(T_S)``, ``E(T_P)`` and the first safe/polluted sojourns,
  Relations (5)-(8)) estimated from batch trajectories;
* :func:`empirical_table2` / :func:`render_empirical_table2` -- the
  full mu-grid of Table II with closed-form and Monte-Carlo columns
  side by side;
* :func:`empirical_proportion_series` -- Figure 5's expected
  safe/polluted cluster proportions, averaged over seeded replications
  of the competing-clusters simulation (Theorem 2's empirical
  counterpart).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import (
    TABLE2_D,
    TABLE2_MU_GRID,
    analysis_runner,
    base_parameters,
    mu_percent,
)
from repro.analysis.tables import render_table
from repro.core.parameters import ModelParameters
from repro.scenario import ScenarioSpec, SweepRunner
from repro.simulation.batch import (
    CompetingSeries,
    batch_monte_carlo_summary,
)
from repro.simulation.cluster_sim import MonteCarloSummary

#: Seed namespace for analysis-level Monte-Carlo estimates.
DEFAULT_SEED = 20110627


def empirical_sojourn_columns(
    params: ModelParameters,
    runs: int = 20_000,
    initial: str = "delta",
    seed: int = DEFAULT_SEED,
    max_steps: int = 2_000_000,
) -> MonteCarloSummary:
    """Batch Monte-Carlo estimates of Relations (5)-(8) at one point."""
    rng = np.random.default_rng(seed)
    return batch_monte_carlo_summary(
        params, rng, runs=runs, initial=initial, max_steps=max_steps
    )


@dataclass(frozen=True)
class EmpiricalTable2Row:
    """Closed-form and Monte-Carlo Table-II quantities at one ``mu``."""

    mu: float
    runs: int
    safe_first: float
    safe_first_mc: float
    polluted_first: float
    polluted_first_mc: float
    total_safe: float
    total_safe_mc: float
    total_polluted: float
    total_polluted_mc: float


def empirical_table2_specs(
    runs: int = 20_000,
    mu_grid: tuple[float, ...] = TABLE2_MU_GRID,
    d: float = TABLE2_D,
    seed: int = DEFAULT_SEED,
) -> list[ScenarioSpec]:
    """The closed-form/batch spec pairs of the empirical Table II.

    Each ``mu`` contributes one ``analytic`` point (depth-1 sojourn
    profile) and one ``batch`` point whose seed is ``seed + index`` --
    the historical per-row law, kept so rows stay reproducible
    independently of the grid they appear in.
    """
    specs: list[ScenarioSpec] = []
    for offset, mu in enumerate(mu_grid):
        params = base_parameters(k=1, mu=mu, d=d)
        specs.append(
            ScenarioSpec(
                name=f"table2-closed[mu={mu}]",
                params=params,
                engine="analytic",
                options={"metrics": "sojourns", "depth": 1},
            )
        )
        specs.append(
            ScenarioSpec(
                name=f"table2-mc[mu={mu}]",
                params=params,
                engine="batch",
                runs=runs,
                seed=seed + offset,
                max_steps=2_000_000,
            )
        )
    return specs


def empirical_table2(
    runs: int = 20_000,
    mu_grid: tuple[float, ...] = TABLE2_MU_GRID,
    d: float = TABLE2_D,
    seed: int = DEFAULT_SEED,
    runner: SweepRunner | None = None,
) -> list[EmpiricalTable2Row]:
    """Table II's grid with an empirical column per closed form."""
    results = analysis_runner(runner).sweep(
        empirical_table2_specs(runs, mu_grid, d, seed)
    )
    rows: list[EmpiricalTable2Row] = []
    for offset, mu in enumerate(mu_grid):
        closed = results[2 * offset].metrics
        measured = results[2 * offset + 1].metrics
        rows.append(
            EmpiricalTable2Row(
                mu=mu,
                runs=runs,
                safe_first=closed["E(T_S,1)"],
                safe_first_mc=measured["E(T_S,1)"],
                polluted_first=closed["E(T_P,1)"],
                polluted_first_mc=measured["E(T_P,1)"],
                total_safe=closed["E(T_S)"],
                total_safe_mc=measured["E(T_S)"],
                total_polluted=closed["E(T_P)"],
                total_polluted_mc=measured["E(T_P)"],
            )
        )
    return rows


def render_empirical_table2(rows: list[EmpiricalTable2Row]) -> str:
    """Paper-shaped table pairing each closed form with its estimate."""
    body = [
        [
            f"mu={mu_percent(row.mu)}%",
            row.safe_first,
            row.safe_first_mc,
            row.polluted_first,
            row.polluted_first_mc,
            row.total_safe,
            row.total_safe_mc,
            row.total_polluted,
            row.total_polluted_mc,
        ]
        for row in rows
    ]
    runs = rows[0].runs if rows else 0
    return render_table(
        [
            "mu",
            "E(T_S,1)",
            "MC",
            "E(T_P,1)",
            "MC",
            "E(T_S)",
            "MC",
            "E(T_P)",
            "MC",
        ],
        body,
        title=(
            f"Table II empirical columns: batch Monte Carlo, {runs} runs "
            f"per point, d={round(100 * TABLE2_D)}%, alpha=delta"
        ),
    )


def empirical_proportion_series(
    params: ModelParameters,
    n_clusters: int,
    n_events: int,
    record_every: int = 500,
    replications: int = 5,
    initial: str = "delta",
    seed: int = DEFAULT_SEED,
    runner: SweepRunner | None = None,
) -> CompetingSeries:
    """Replication-averaged Figure-5 curve from the batch engine.

    Runs ``replications`` independently seeded competing-clusters
    simulations and averages their occupancy series; the result is the
    empirical counterpart of
    :meth:`~repro.core.overlay_model.OverlayModel.proportion_series`
    and is returned as a :class:`CompetingSeries` over the same event
    axis.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    spec = ScenarioSpec(
        name=(
            f"proportions[n={n_clusters},mu={params.mu},d={params.d},"
            f"events={n_events}]"
        ),
        params=params,
        initial=initial,
        engine="competing-batch",
        n=n_clusters,
        events=n_events,
        record_every=record_every,
        replications=replications,
        seed=seed,
    )
    result = analysis_runner(runner).run(spec)
    return CompetingSeries(
        events=np.asarray(result.series["events"]),
        safe_fraction=np.asarray(result.series["safe_fraction"]),
        polluted_fraction=np.asarray(result.series["polluted_fraction"]),
        n_clusters=n_clusters,
    )
