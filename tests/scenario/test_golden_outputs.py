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
#: tier that samples or solves the transition rows (the paper's,
#: variant, kind-conditional and skip tables), and on the scalar tier,
#: which plays each law's timed stream, at one small parameter point.
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


#: The transition-law grid, ``(C, Delta, k, mu, d, nu, p_join)``: every
#: shape, k = 1 and k = C, and each mu, d, nu and p_join value below
#: appear at least once.
LAW_PARAMS = (
    (1, 2, 1, 0.0, 0.0, 0.1, 0.5),
    (1, 2, 1, 0.25, 0.9, 0.5, 0.45),
    (1, 2, 1, 1.0, 1.0, 0.1, 0.5),
    (4, 5, 1, 0.25, 0.9, 0.1, 0.5),
    (4, 5, 4, 0.25, 0.9, 0.5, 0.5),
    (4, 5, 4, 1.0, 0.0, 0.1, 0.45),
    (4, 5, 1, 0.0, 1.0, 0.5, 0.5),
    (7, 7, 1, 0.0, 0.0, 0.1, 0.5),
    (7, 7, 1, 0.25, 0.9, 0.1, 0.5),
    (7, 7, 2, 0.25, 0.9, 0.5, 0.5),
    (7, 7, 7, 0.25, 0.9, 0.5, 0.5),
    (7, 7, 7, 0.25, 1.0, 0.5, 0.45),
    (7, 7, 1, 1.0, 0.9, 0.1, 0.45),
    (7, 7, 7, 0.25, 0.0, 0.1, 0.5),
    (10, 8, 1, 0.25, 0.9, 0.1, 0.5),
    (10, 8, 10, 0.25, 0.9, 0.5, 0.5),
    (10, 8, 10, 1.0, 1.0, 0.1, 0.45),
    (10, 8, 1, 0.0, 0.9, 0.5, 0.45),
    (13, 12, 1, 0.25, 0.9, 0.1, 0.5),
    (13, 12, 13, 0.25, 0.9, 0.5, 0.5),
    (13, 12, 13, 0.25, 1.0, 0.1, 0.45),
    (13, 12, 1, 1.0, 0.0, 0.5, 0.5),
)


def render_transition_laws() -> list[str]:
    """One sorted-key JSON line per :data:`LAW_PARAMS` set: the set, and
    per law family the SHA-256 of every transient state's law ``repr``
    (one per line, in state order) -- the paper's law, DIRECT_CORE, and
    each count policy's join, leave, mixed and mixed-at-0.45 laws -- and
    of the paper's :class:`TransitionRows` arrays."""
    import dataclasses
    import hashlib
    import json

    from repro.core.parameters import ModelParameters
    from repro.core.policies import COUNT_POLICIES
    from repro.core.statespace import StateSpace
    from repro.core.transitions import (
        KIND_JOIN,
        KIND_LEAVE,
        policy_transition_distribution,
        transition_distribution,
        transition_rows,
    )
    from repro.core.variants import JoinPolicy, variant_transition_distribution

    def digest(texts) -> str:
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    lines = []
    for core_size, spare_max, k, mu, d, nu, p_join in LAW_PARAMS:
        params = ModelParameters(
            core_size=core_size,
            spare_max=spare_max,
            k=k,
            mu=mu,
            d=d,
            nu=nu,
            p_join=p_join,
        )
        transient = StateSpace(params).transient
        families = {
            "paper": lambda state: transition_distribution(state, params),
            "direct-core": lambda state: variant_transition_distribution(
                state, params, JoinPolicy.DIRECT_CORE
            ),
        }
        for name, policy in COUNT_POLICIES.items():
            for family, options in (
                ("join", {"kind": KIND_JOIN}),
                ("leave", {"kind": KIND_LEAVE}),
                ("mixed", {}),
                ("mixed-0.45", {"p_join": 0.45}),
            ):
                families[f"{name}/{family}"] = (
                    lambda state, policy=policy, options=options: (
                        policy_transition_distribution(
                            state, params, policy, **options
                        )
                    )
                )
        line = {
            family: digest(repr(law(state)) for state in transient)
            for family, law in families.items()
        }
        rows = transition_rows(params)
        line["paper-rows"] = digest(
            f"{name} {array.dtype} {array.shape} {array.tobytes().hex()}"
            for name, array in (
                ("targets", rows.targets),
                ("probs", rows.probs),
                ("cum_probs", rows.cum_probs),
                ("category_codes", rows.category_codes),
                ("state_index", rows.state_index),
            )
        )
        line["params"] = dataclasses.asdict(params)
        lines.append(json.dumps(line, sort_keys=True))
    return lines


class TestTransitionLaws:
    def test_transition_laws_byte_identical(self):
        import json

        expected = golden("transition_laws.jsonl").splitlines()
        rendered = render_transition_laws()
        assert len(rendered) == len(expected)
        mismatches = [
            (want["params"], family)
            for want, got in (
                (json.loads(a), json.loads(b))
                for a, b in zip(expected, rendered)
            )
            for family in sorted(want)
            if got.get(family) != want[family]
        ]
        assert not mismatches, mismatches
        assert "\n".join(rendered) + "\n" == golden("transition_laws.jsonl")
