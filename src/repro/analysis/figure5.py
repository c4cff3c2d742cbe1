"""Figure 5: overlay-wide safe/polluted proportions over time.

``E(N_S(m))/n`` and ``E(N_P(m))/n`` (Theorem 2) for m up to 100 000
events, n in {500, 1500}, d in {30 %, 90 %} (lifetimes L = 6.58 and
46.05 through the paper's calibration).  Published claims: the polluted
proportion stays below 2.2 %, and both proportions are nearly
independent of d because the real churn dominates the induced churn.

The paper does not print the mu used; we take mu = 25 %
(``FIGURE5_MU``), which reproduces the published 2.2 % ceiling (peak
2.17 %) where mu = 30 % would peak at 3.2 %, and expose the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import (
    FIGURE5_D_GRID,
    FIGURE5_EVENTS,
    FIGURE5_MU,
    FIGURE5_N_GRID,
    analysis_runner,
    scenario_spec,
)
from repro.analysis.tables import render_table
from repro.core.calibration import lifetime_from_d
from repro.core.overlay_model import OverlaySeries
from repro.scenario import ScenarioSpec, SweepRunner

#: Published ceiling on the expected polluted proportion.
PAPER_POLLUTED_CEILING = 0.022


@dataclass(frozen=True)
class Figure5Curve:
    """One (n, d) curve of both panels."""

    n_clusters: int
    d: float
    lifetime: float
    series: OverlaySeries


def figure5_specs(
    mu: float = FIGURE5_MU,
    n_grid: tuple[int, ...] = FIGURE5_N_GRID,
    d_grid: tuple[float, ...] = FIGURE5_D_GRID,
    n_events: int = FIGURE5_EVENTS,
    record_every: int = 500,
) -> list[tuple[ScenarioSpec, tuple[int, float]]]:
    """The four Theorem-2 curves as (spec, (n, d)) points."""
    return [
        (
            scenario_spec(
                f"figure5[n={n_clusters},d={d}]",
                engine="overlay-analytic",
                k=1,
                mu=mu,
                d=d,
                n=n_clusters,
                events=n_events,
                record_every=record_every,
            ),
            (n_clusters, d),
        )
        for d in d_grid
        for n_clusters in n_grid
    ]


def compute_figure5(
    mu: float = FIGURE5_MU,
    n_grid: tuple[int, ...] = FIGURE5_N_GRID,
    d_grid: tuple[float, ...] = FIGURE5_D_GRID,
    n_events: int = FIGURE5_EVENTS,
    record_every: int = 500,
    runner: SweepRunner | None = None,
) -> list[Figure5Curve]:
    """Evaluate the four curves of Figure 5 through the sweep runner."""
    points = figure5_specs(mu, n_grid, d_grid, n_events, record_every)
    results = analysis_runner(runner).sweep([spec for spec, _ in points])
    return [
        Figure5Curve(
            n_clusters=n_clusters,
            d=d,
            lifetime=lifetime_from_d(d),
            series=OverlaySeries(
                events=np.asarray(result.series["events"]),
                safe_fraction=np.asarray(result.series["safe_fraction"]),
                polluted_fraction=np.asarray(
                    result.series["polluted_fraction"]
                ),
                n_clusters=n_clusters,
            ),
        )
        for (_, (n_clusters, d)), result in zip(points, results)
    ]


def render_figure5(curves: list[Figure5Curve], sample_points: int = 11) -> str:
    """Sampled rows of each curve plus the summary statistics."""
    blocks = []
    for curve in curves:
        events = curve.series.events
        indices = np.linspace(0, len(events) - 1, sample_points).astype(int)
        rows = [
            [
                int(events[i]),
                curve.series.safe_fraction[i],
                curve.series.polluted_fraction[i],
            ]
            for i in indices
        ]
        rows.append(
            [
                "peak",
                float(curve.series.safe_fraction.max()),
                curve.series.peak_polluted_fraction,
            ]
        )
        blocks.append(
            render_table(
                ["m (events)", "E(N_S)/n", "E(N_P)/n"],
                rows,
                title=(
                    f"Figure 5 curve: n={curve.n_clusters}, "
                    f"d={round(100 * curve.d)}% "
                    f"(L={curve.lifetime:.2f})"
                ),
            )
        )
    return "\n\n".join(blocks)


def shape_checks(curves: list[Figure5Curve]) -> dict[str, bool]:
    """The paper's qualitative claims on the overlay-level series."""

    def check_polluted_ceiling() -> bool:
        return all(
            curve.series.peak_polluted_fraction < PAPER_POLLUTED_CEILING
            for curve in curves
        )

    def check_d_independence() -> bool:
        by_n: dict[int, list[Figure5Curve]] = {}
        for curve in curves:
            by_n.setdefault(curve.n_clusters, []).append(curve)
        for group in by_n.values():
            if len(group) < 2:
                continue
            gap = max(
                float(
                    np.max(
                        np.abs(a.series.safe_fraction - b.series.safe_fraction)
                    )
                )
                for a in group
                for b in group
            )
            # "Almost independent of d": a few percent at most.
            if gap > 0.05:
                return False
        return True

    def check_vanishing_tail() -> bool:
        # Theorem 2: all transient mass eventually dies.  After 100 000
        # events each of the n<=1500 chains made >= 60 transitions on
        # average, far beyond the ~12-step absorption horizon.
        return all(
            curve.series.safe_fraction[-1]
            + curve.series.polluted_fraction[-1]
            < 0.05
            for curve in curves
        )

    def check_larger_overlay_decays_slower() -> bool:
        by_d: dict[float, dict[int, Figure5Curve]] = {}
        for curve in curves:
            by_d.setdefault(curve.d, {})[curve.n_clusters] = curve
        for group in by_d.values():
            sizes = sorted(group)
            for small, large in zip(sizes, sizes[1:]):
                midpoint = len(group[small].series.events) // 2
                if (
                    group[large].series.safe_fraction[midpoint]
                    < group[small].series.safe_fraction[midpoint] - 1e-9
                ):
                    return False
        return True

    return {
        "polluted_below_2.2pct": check_polluted_ceiling(),
        "nearly_independent_of_d": check_d_independence(),
        "transient_mass_dies": check_vanishing_tail(),
        "larger_n_decays_slower": check_larger_overlay_decays_slower(),
    }
