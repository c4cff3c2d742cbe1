"""Byte-identity of the refactored analysis paths.

The Figure 3/4/5 and Table I/II grids now execute through the scenario
subsystem's :class:`~repro.scenario.runner.SweepRunner`; these golden
files were rendered by the direct per-module implementations
immediately before the refactor, so equality here proves the runner
path reproduces the historical outputs byte for byte.  The figure
tests also hold each figure's shape checks on its full grid.
"""

import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


class TestClosedFormGrids:
    def test_table1_byte_identical(self):
        from repro.analysis import table1

        rendered = table1.render_table1(table1.compute_table1())
        assert rendered + "\n" == golden("table1.txt")

    def test_table2_byte_identical(self):
        from repro.analysis import table2

        rendered = table2.render_table2(table2.compute_table2())
        assert rendered + "\n" == golden("table2.txt")

    def test_figure3_byte_identical(self):
        from repro.analysis import figure3

        cells = figure3.compute_figure3()
        assert figure3.render_figure3(cells) + "\n" == golden("figure3.txt")
        checks = figure3.shape_checks(cells)
        assert all(checks.values()), checks

    def test_figure4_byte_identical(self):
        from repro.analysis import figure4

        cells = figure4.compute_figure4()
        assert figure4.render_figure4(cells) + "\n" == golden("figure4.txt")
        checks = figure4.shape_checks(cells)
        assert all(checks.values()), checks


class TestOverlayGrid:
    def test_figure5_byte_identical(self):
        from repro.analysis import figure5

        curves = figure5.compute_figure5()
        assert figure5.render_figure5(curves) + "\n" == golden("figure5.txt")
        checks = figure5.shape_checks(curves)
        assert all(checks.values()), checks


class TestMonteCarloGrid:
    def test_empirical_table2_byte_identical(self):
        from repro.analysis.montecarlo import (
            empirical_table2,
            render_empirical_table2,
        )

        rendered = render_empirical_table2(empirical_table2(runs=2000))
        assert rendered + "\n" == golden("montecarlo_table2.txt")


#: The engine-identity grid: every churn variant and adversary on every
#: tier that samples or solves the transition rows (legacy, variant,
#: kind-conditional and skip tables), and on the scalar tier, which
#: plays each law's timed stream, at one small parameter point.
IDENTITY_CHURN = (
    ("bernoulli", {}),
    ("bernoulli", {"p_join": 0.45}),
    ("poisson", {}),
    ("exponential-sessions", {"horizon": 5e3}),
    ("pareto-sessions", {"horizon": 5e3, "shape": 2.0}),
)
IDENTITY_ADVERSARIES = ("strong", "greedy-leave")
IDENTITY_ENGINES = (
    ("analytic", {}),
    ("overlay-analytic", {"n": 60, "events": 600, "record_every": 150}),
    ("batch", {"runs": 300}),
    ("batch", {"runs": 300, "options": {"mode": "skip"}}),
    ("batch", {"runs": 300, "initial": "beta"}),
    ("batch", {"runs": 300, "initial": "beta", "options": {"mode": "skip"}}),
    ("scalar", {"runs": 80}),
    ("competing-batch", {"n": 60, "events": 600, "record_every": 150}),
    (
        "competing-batch",
        {
            "n": 60,
            "events": 600,
            "record_every": 150,
            "options": {"event_batching": True},
        },
    ),
)


def render_engine_identity() -> list[str]:
    """One sorted-key JSON line per grid point: the result's
    ``to_dict()``, or the refusal as ``"<error type>: <message>"``."""
    import json

    from repro.core.parameters import ModelParameters
    from repro.scenario import ScenarioSpec
    from repro.scenario.runner import execute_spec

    params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9)
    lines = []
    for churn, churn_options in IDENTITY_CHURN:
        for adversary in IDENTITY_ADVERSARIES:
            for engine, fields in IDENTITY_ENGINES:
                spec = dict(
                    fields,
                    name="engine-identity",
                    params=params,
                    seed=11,
                    engine=engine,
                    churn=churn,
                    churn_options=churn_options,
                    adversary=adversary,
                )
                try:
                    line = execute_spec(ScenarioSpec(**spec)).to_dict()
                except Exception as error:  # noqa: BLE001 - refusals
                    line = f"{type(error).__name__}: {error}"
                lines.append(json.dumps(line, sort_keys=True))
    return lines


class TestEngineIdentity:
    def test_engine_tiers_byte_identical(self):
        rendered = "\n".join(render_engine_identity()) + "\n"
        assert rendered == golden("engine_identity.jsonl")
