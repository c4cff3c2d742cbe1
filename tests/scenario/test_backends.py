"""Unit tests for the simulation backends behind the engine registry."""

import numpy as np
import pytest

from repro.core.parameters import ModelParameters
from repro.scenario import ENGINES, ScenarioSpec, SpecError
from repro.scenario.runner import execute_spec

ATTACK = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9)


def spec(**fields) -> ScenarioSpec:
    defaults = {"name": "t", "params": ATTACK, "seed": 3}
    defaults.update(fields)
    return ScenarioSpec(**defaults)


class TestAnalyticBackend:
    def test_times_match_model(self, attack_model):
        result = execute_spec(spec(engine="analytic"))
        assert result.metrics["E(T_S)"] == attack_model.with_overrides(
            d=0.9
        ).expected_time_safe("delta")

    def test_sojourn_family(self):
        result = execute_spec(
            spec(engine="analytic", options={"metrics": "sojourns"})
        )
        assert {"E(T_S,1)", "E(T_S,2)", "E(T_P,1)", "E(T_P,2)"} <= set(
            result.metrics
        )

    def test_absorption_family_sums_to_one(self):
        result = execute_spec(
            spec(engine="analytic", options={"metrics": "absorption"})
        )
        total = (
            result.metrics["p(safe-merge)"]
            + result.metrics["p(safe-split)"]
            + result.metrics["p(polluted-merge)"]
        )
        assert total == pytest.approx(1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError, match="metrics family"):
            execute_spec(
                spec(engine="analytic", options={"metrics": "bogus"})
            )

    def test_rejects_non_strong_adversary(self):
        with pytest.raises(SpecError, match="strong adversary"):
            execute_spec(spec(engine="analytic", adversary="passive"))

    def test_rejects_non_bernoulli_churn(self):
        with pytest.raises(SpecError, match="churn"):
            execute_spec(spec(engine="analytic", churn="poisson"))

    @pytest.mark.parametrize("engine", ["analytic", "overlay-analytic"])
    def test_rejects_a_p_join_the_closed_forms_do_not_play(self, engine):
        with pytest.raises(SpecError, match="params.p_join"):
            execute_spec(spec(engine=engine, churn_options={"p_join": 0.45}))
        # The model's own p_join is the law the closed forms solve.
        same = execute_spec(spec(engine=engine, churn_options={"p_join": 0.5}))
        assert same.metrics == execute_spec(spec(engine=engine)).metrics


class TestBatchBackend:
    def test_matches_direct_summary(self):
        from repro.simulation.batch import batch_monte_carlo_summary

        result = execute_spec(spec(engine="batch", runs=2000, seed=17))
        direct = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(17), runs=2000
        )
        assert result.metrics["E(T_S)"] == direct.mean_time_safe
        assert result.metrics["E(T_P)"] == direct.mean_time_polluted
        assert (
            result.metrics["p(polluted-merge)"] == direct.p_polluted_merge
        )


class TestScalarBackend:
    def test_adversary_axis_changes_outcome(self):
        strong = execute_spec(spec(engine="scalar", runs=800))
        passive = execute_spec(
            spec(engine="scalar", runs=800, adversary="passive")
        )
        assert (
            passive.metrics["E(T_P)"] < strong.metrics["E(T_P)"]
        ), "a protocol-following adversary must pollute less"

    def test_churn_axis_accepted(self):
        result = execute_spec(
            spec(
                engine="scalar",
                runs=200,
                churn="pareto-sessions",
                churn_options={"horizon": 100000.0},
            )
        )
        assert result.metrics["runs"] == 200.0

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SpecError, match="count-level"):
            execute_spec(spec(engine="scalar", adversary="martian"))

    def test_misspelled_churn_option_rejected(self):
        with pytest.raises(SpecError, match="mean_sesion"):
            execute_spec(
                spec(
                    engine="scalar",
                    runs=10,
                    churn="exponential-sessions",
                    churn_options={"mean_sesion": 2.0},
                )
            )

    def test_foreign_but_valid_churn_option_dropped(self):
        # 'horizon' belongs to the session generators; a bernoulli
        # point in the same sweep simply ignores it.
        result = execute_spec(
            spec(
                engine="scalar",
                runs=50,
                churn="bernoulli",
                churn_options={"horizon": 1000.0},
            )
        )
        assert result.metrics["runs"] == 50.0


class TestCompetingBackends:
    def test_batch_matches_montecarlo_helper(self):
        from repro.analysis.montecarlo import empirical_proportion_series

        result = execute_spec(
            spec(
                engine="competing-batch",
                n=300,
                events=1500,
                record_every=500,
                replications=3,
                seed=5,
            )
        )
        series = empirical_proportion_series(
            ATTACK, 300, 1500, record_every=500, replications=3, seed=5
        )
        assert result.series["events"] == series.events.tolist()
        assert result.series["safe_fraction"] == series.safe_fraction.tolist()

    def test_scalar_engine_runs(self):
        result = execute_spec(
            spec(
                engine="competing-scalar",
                n=50,
                events=400,
                record_every=200,
            )
        )
        assert len(result.series["events"]) == 3
        assert result.series["safe_fraction"][0] == 1.0


class TestAgentBackend:
    def test_deterministic_per_spec(self):
        point = spec(
            engine="agent",
            n=40,
            events=60,
            adversary="strong",
            options={"sample_every": 20.0},
        )
        first = execute_spec(point)
        second = execute_spec(point)
        assert first.metrics == second.metrics
        assert first.series == second.series

    def test_adversary_and_churn_axes(self):
        result = execute_spec(
            spec(
                engine="agent",
                n=40,
                events=60,
                adversary="passive",
                churn="poisson",
            )
        )
        assert result.metrics.get("op:leave-suppressed", 0.0) == 0.0
        assert result.meta["churn"] == "poisson"


class TestEngineRegistryDispatch:
    def test_unknown_engine(self):
        from repro.scenario.registry import RegistryError

        with pytest.raises(RegistryError, match="simulation backend"):
            execute_spec(spec(engine="warp-drive"))

    def test_all_engines_expose_run(self):
        import repro.scenario.backends  # noqa: F401

        for name in ENGINES.names():
            assert callable(ENGINES.get(name).run)


class TestBatchBackendAxes:
    """The batch tier is the universal fast path: every registered
    adversary and churn model runs on it, never a silent fallback."""

    def test_adversary_axis_changes_outcome(self):
        strong = execute_spec(spec(engine="batch", runs=4000))
        passive = execute_spec(
            spec(engine="batch", runs=4000, adversary="passive")
        )
        assert (
            passive.metrics["p(polluted-merge)"]
            < strong.metrics["p(polluted-merge)"]
        )

    def test_poisson_default_rates_equal_bernoulli(self):
        """Event-indexed, the default Poisson superposition is the
        Bernoulli stream: identical engine path, identical result."""
        bernoulli = execute_spec(spec(engine="batch", runs=1500, seed=5))
        poisson = execute_spec(
            spec(engine="batch", runs=1500, seed=5, churn="poisson")
        )
        assert bernoulli.metrics == poisson.metrics

    def test_session_churn_accepted(self):
        result = execute_spec(
            spec(
                engine="batch",
                runs=800,
                churn="pareto-sessions",
                churn_options={"horizon": 100000.0},
            )
        )
        assert result.metrics["runs"] == 800.0

    def test_default_point_is_byte_identical_to_legacy(self):
        from repro.simulation.batch import batch_monte_carlo_summary

        result = execute_spec(spec(engine="batch", runs=1200, seed=17))
        direct = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(17), runs=1200
        )
        assert result.metrics["E(T_S)"] == direct.mean_time_safe

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SpecError, match="count-level"):
            execute_spec(spec(engine="batch", adversary="martian"))

    def test_bad_mode_rejected(self):
        with pytest.raises(SpecError, match="mode"):
            execute_spec(
                spec(engine="batch", runs=10, options={"mode": "warp"})
            )

    def test_skip_mode_on_session_churn_rejected(self):
        with pytest.raises(SpecError, match="skip"):
            execute_spec(
                spec(
                    engine="batch",
                    runs=10,
                    churn="exponential-sessions",
                    churn_options={"horizon": 5000.0},
                    options={"mode": "skip"},
                )
            )

    def test_chunk_size_option_streams(self):
        chunked = execute_spec(
            spec(
                engine="batch",
                runs=3000,
                seed=8,
                adversary="passive",
                options={"chunk_size": 1000},
            )
        )
        assert chunked.metrics["runs"] == 3000.0


class TestCompetingBackendAxes:
    def test_adversary_axis_accepted(self):
        result = execute_spec(
            spec(
                engine="competing-batch",
                n=100,
                events=500,
                record_every=250,
                adversary="passive",
            )
        )
        assert result.metrics["final_safe_fraction"] >= 0.0

    def test_event_batching_option(self):
        result = execute_spec(
            spec(
                engine="competing-batch",
                n=100,
                events=500,
                record_every=250,
                options={"event_batching": True},
            )
        )
        assert len(result.series["events"]) == 3

    def test_session_churn_rejected_loudly(self):
        with pytest.raises(SpecError, match="session"):
            execute_spec(
                spec(
                    engine="competing-batch",
                    n=20,
                    events=100,
                    churn="pareto-sessions",
                )
            )

    def test_scalar_engine_honours_adversary(self):
        result = execute_spec(
            spec(
                engine="competing-scalar",
                n=30,
                events=200,
                record_every=100,
                adversary="greedy-leave",
            )
        )
        assert result.meta["adversary"] == "greedy-leave"

    def test_event_batching_on_scalar_engine_rejected(self):
        with pytest.raises(SpecError, match="event-axis"):
            execute_spec(
                spec(
                    engine="competing-scalar",
                    n=20,
                    events=100,
                    options={"event_batching": True},
                )
            )

    def test_unknown_engine_option_rejected(self):
        with pytest.raises(SpecError, match="chunksize"):
            execute_spec(
                spec(engine="batch", runs=10, options={"chunksize": 100})
            )

    def test_foreign_but_valid_engine_option_dropped(self):
        # 'sample_every' belongs to the agent engine; a batch point in
        # the same sweep simply ignores it.
        result = execute_spec(
            spec(engine="batch", runs=50, options={"sample_every": 5.0})
        )
        assert result.metrics["runs"] == 50.0


class EventsOnly:
    """A churn law with a timed stream and no event-kind law."""

    def __init__(self, p_join: float) -> None:
        self.p_join = p_join

    def events(self, rng):
        from repro.simulation.churn import bernoulli_event_stream

        return bernoulli_event_stream(rng, p_join=self.p_join)


class TestStreamOnlyChurnLaw:
    """A registered churn model whose law has only ``events(rng)`` runs
    on the stream tiers and is refused loudly by the batch tiers."""

    @pytest.fixture
    def events_only(self, monkeypatch):
        from repro.scenario.registry import CHURN_MODELS

        with monkeypatch.context() as scoped:
            scoped.setitem(
                CHURN_MODELS._entries,
                "events-only",
                lambda rng, params: EventsOnly(params.p_join),
            )
            yield "events-only"
        assert "events-only" not in CHURN_MODELS

    def test_runs_on_the_scalar_engine(self, events_only):
        custom = execute_spec(
            spec(engine="scalar", runs=200, churn=events_only)
        )
        bernoulli = execute_spec(spec(engine="scalar", runs=200))
        assert custom.metrics["runs"] == 200.0
        assert custom.metrics == bernoulli.metrics

    @pytest.mark.parametrize("engine", ("batch", "competing-batch"))
    def test_batch_tiers_refuse_it(self, events_only, engine):
        with pytest.raises(SpecError, match="no event-kind law"):
            execute_spec(
                spec(
                    engine=engine,
                    runs=10,
                    n=10,
                    events=10,
                    churn=events_only,
                )
            )
