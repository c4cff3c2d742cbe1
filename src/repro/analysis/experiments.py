"""Shared experiment grid definitions and sweep runner.

The paper's evaluation fixes ``C = 7``, ``Delta = 7`` and sweeps
``mu``, ``d``, ``k`` and the initial distribution; this module holds the
exact grids so every table/figure module and benchmark agrees on them.

Since the scenario subsystem landed, each table/figure module renders
its grid as a list of :class:`~repro.scenario.spec.ScenarioSpec` points
(built with :func:`analytic_spec` / :func:`scenario_spec`) and executes
them through the shared :data:`analysis_runner` -- the same
:class:`~repro.scenario.runner.SweepRunner` machinery the CLI exposes
for arbitrary spec files, run serially and uncached here so library
calls stay side-effect free and byte-identical.
"""

from __future__ import annotations

from repro.core.parameters import ModelParameters
from repro.scenario import ScenarioSpec, SweepRunner

#: Figure 3 / Figure 4 attack-strength grid (fractions, printed as %).
MU_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

#: Figure 3 / Figure 4 identifier-survival grid.
D_GRID = (0.0, 0.30, 0.80, 0.90)

#: Table I grids.
TABLE1_MU_GRID = (0.0, 0.10, 0.20, 0.30)
TABLE1_D_GRID = (0.95, 0.99, 0.999)

#: Table II grid (d is fixed at 90 %).
TABLE2_MU_GRID = (0.0, 0.10, 0.20, 0.30)
TABLE2_D = 0.90

#: Figure 5 overlay sizes and churn levels.
FIGURE5_N_GRID = (500, 1500)
FIGURE5_D_GRID = (0.30, 0.90)
FIGURE5_EVENTS = 100_000
#: The paper omits mu for Figure 5.  mu = 25 % reproduces the published
#: "less than 2.2 %" polluted-proportion ceiling exactly (peak 2.17 %);
#: mu = 30 % would peak at 3.2 %.
FIGURE5_MU = 0.25

#: Paper base point.
BASE_CORE_SIZE = 7
BASE_SPARE_MAX = 7


def base_parameters(**overrides) -> ModelParameters:
    """The paper's ``C = Delta = 7`` base point with overrides."""
    defaults = {
        "core_size": BASE_CORE_SIZE,
        "spare_max": BASE_SPARE_MAX,
        "k": 1,
    }
    defaults.update(overrides)
    return ModelParameters(**defaults)


def mu_percent(mu: float) -> int:
    """Grid label helper (``0.05 -> 5``)."""
    return round(100 * mu)


#: Serial, uncached runner shared by the analysis modules.  Swap in a
#: parallel/cached :class:`~repro.scenario.runner.SweepRunner` via the
#: ``runner=`` parameter of any ``compute_*`` function to fan a grid
#: out over workers or reuse ``results/scenarios/`` artifacts.
_DEFAULT_RUNNER = SweepRunner()


def analysis_runner(runner: SweepRunner | None = None) -> SweepRunner:
    """The runner a ``compute_*`` call should use."""
    return runner if runner is not None else _DEFAULT_RUNNER


def scenario_spec(name: str, **fields) -> ScenarioSpec:
    """A spec at the paper's base point; ``mu``/``d``/``k``/``nu``/
    ``p_join`` keywords override model parameters, everything else maps
    to :class:`~repro.scenario.spec.ScenarioSpec` fields."""
    param_names = ("core_size", "spare_max", "k", "mu", "d", "nu", "p_join")
    overrides = {
        key: fields.pop(key) for key in param_names if key in fields
    }
    return ScenarioSpec(
        name=name, params=base_parameters(**overrides), **fields
    )


def analytic_spec(
    name: str,
    metrics: str = "times",
    initial: str = "delta",
    **fields,
) -> ScenarioSpec:
    """A closed-form evaluation point (``analytic`` engine)."""
    return scenario_spec(
        name,
        engine="analytic",
        initial=initial,
        options={"metrics": metrics},
        **fields,
    )
