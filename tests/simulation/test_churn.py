"""Unit tests for churn generators."""

import itertools

import numpy as np
import pytest

from repro.core.parameters import ModelParameters
from repro.scenario.registry import CHURN_MODELS
from repro.simulation.churn import (
    EventKind,
    bernoulli_event_stream,
    exponential_sessions,
    pareto_sessions,
    poisson_event_stream,
    session_event_stream,
)


class TestBernoulliStream:
    def test_unit_spacing(self, rng):
        events = list(itertools.islice(bernoulli_event_stream(rng), 5))
        assert [e.time for e in events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_join_fraction_matches_p(self):
        rng = np.random.default_rng(0)
        events = list(
            itertools.islice(bernoulli_event_stream(rng, p_join=0.7), 5000)
        )
        fraction = sum(e.kind is EventKind.JOIN for e in events) / 5000
        assert 0.66 < fraction < 0.74

    def test_p_join_validated(self, rng):
        with pytest.raises(ValueError):
            next(bernoulli_event_stream(rng, p_join=1.0))


class TestPoissonStream:
    def test_times_strictly_increase(self, rng):
        events = list(
            itertools.islice(poisson_event_stream(rng, 1.0, 1.0), 100)
        )
        times = [e.time for e in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_controls_density(self):
        slow = list(
            itertools.islice(
                poisson_event_stream(np.random.default_rng(1), 0.5, 0.5), 500
            )
        )
        fast = list(
            itertools.islice(
                poisson_event_stream(np.random.default_rng(1), 5.0, 5.0), 500
            )
        )
        assert fast[-1].time < slow[-1].time

    def test_join_share_follows_rates(self):
        rng = np.random.default_rng(2)
        events = list(
            itertools.islice(poisson_event_stream(rng, 3.0, 1.0), 4000)
        )
        fraction = sum(e.kind is EventKind.JOIN for e in events) / 4000
        assert 0.70 < fraction < 0.80

    def test_rates_validated(self, rng):
        with pytest.raises(ValueError):
            next(poisson_event_stream(rng, 0.0, 1.0))


class TestSessions:
    def test_exponential_sessions_respect_horizon(self, rng):
        plans = exponential_sessions(rng, 2.0, 5.0, horizon=100.0)
        assert plans
        assert all(p.arrival < 100.0 for p in plans)
        assert all(p.departure > p.arrival for p in plans)

    def test_exponential_mean_session(self):
        rng = np.random.default_rng(3)
        plans = exponential_sessions(rng, 5.0, 4.0, horizon=2000.0)
        mean = np.mean([p.duration for p in plans])
        assert 3.5 < mean < 4.5

    def test_pareto_sessions_heavy_tail(self):
        rng = np.random.default_rng(4)
        plans = pareto_sessions(rng, 5.0, shape=1.5, scale=1.0, horizon=2000.0)
        durations = np.array([p.duration for p in plans])
        assert durations.min() >= 1.0  # scale is a hard floor
        # Heavy tail: the max dwarfs the median.
        assert durations.max() > 20 * np.median(durations)

    def test_pareto_shape_validated(self, rng):
        with pytest.raises(ValueError, match="shape"):
            pareto_sessions(rng, 1.0, shape=1.0, scale=1.0, horizon=10.0)

    def test_positive_parameters_validated(self, rng):
        with pytest.raises(ValueError):
            exponential_sessions(rng, -1.0, 1.0, 10.0)


class TestEventRates:
    """Sanity on the arrival intensities the generators promise."""

    def test_poisson_event_count_matches_total_rate(self):
        # N(t) ~ Poisson(rate * t): count 2000 events and check the
        # elapsed time against the mean with a generous 5-sigma band.
        rng = np.random.default_rng(7)
        total_rate = 4.0
        events = list(
            itertools.islice(poisson_event_stream(rng, 3.0, 1.0), 2000)
        )
        elapsed = events[-1].time
        expected = 2000 / total_rate
        sigma = np.sqrt(2000) / total_rate
        assert abs(elapsed - expected) < 5 * sigma

    def test_poisson_interarrival_mean(self):
        rng = np.random.default_rng(8)
        events = list(
            itertools.islice(poisson_event_stream(rng, 1.0, 1.0), 4000)
        )
        times = np.array([e.time for e in events])
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(0.5, rel=0.1)

    def test_session_arrival_rate(self):
        rng = np.random.default_rng(9)
        plans = exponential_sessions(rng, 3.0, 1.0, horizon=2000.0)
        rate = len(plans) / 2000.0
        assert rate == pytest.approx(3.0, rel=0.1)


class TestDistributionMoments:
    """First/second moments of the session-time laws."""

    def test_exponential_session_variance(self):
        rng = np.random.default_rng(10)
        plans = exponential_sessions(rng, 5.0, 4.0, horizon=4000.0)
        durations = np.array([p.duration for p in plans])
        # Exponential: Var = mean^2.
        assert durations.mean() == pytest.approx(4.0, rel=0.1)
        assert durations.std() == pytest.approx(4.0, rel=0.1)

    def test_pareto_session_mean_with_finite_variance_shape(self):
        rng = np.random.default_rng(11)
        shape, scale = 2.5, 1.0
        plans = pareto_sessions(
            rng, 5.0, shape=shape, scale=scale, horizon=8000.0
        )
        durations = np.array([p.duration for p in plans])
        # Lomax+scale parameterization: E = scale * shape / (shape - 1).
        expected_mean = scale * shape / (shape - 1)
        assert durations.mean() == pytest.approx(expected_mean, rel=0.1)

    def test_pareto_tail_heavier_than_exponential(self):
        rng = np.random.default_rng(12)
        pareto = pareto_sessions(rng, 5.0, 1.5, 1.0, horizon=4000.0)
        exponential = exponential_sessions(rng, 5.0, 3.0, horizon=4000.0)
        pareto_durations = np.array([p.duration for p in pareto])
        exp_durations = np.array([p.duration for p in exponential])
        ratio_pareto = pareto_durations.max() / np.median(pareto_durations)
        ratio_exp = exp_durations.max() / np.median(exp_durations)
        assert ratio_pareto > ratio_exp


class TestDeterminism:
    """Fixed seeds reproduce every generator bit for bit."""

    def test_bernoulli_stream_reproducible(self):
        runs = [
            list(
                itertools.islice(
                    bernoulli_event_stream(
                        np.random.default_rng(21), p_join=0.6
                    ),
                    200,
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_poisson_stream_reproducible(self):
        runs = [
            list(
                itertools.islice(
                    poisson_event_stream(
                        np.random.default_rng(22), 2.0, 1.0
                    ),
                    200,
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_sessions_reproducible(self):
        first = pareto_sessions(
            np.random.default_rng(23), 2.0, 1.5, 1.0, horizon=100.0
        )
        second = pareto_sessions(
            np.random.default_rng(23), 2.0, 1.5, 1.0, horizon=100.0
        )
        assert first == second

    def test_different_seeds_differ(self):
        first = exponential_sessions(
            np.random.default_rng(1), 2.0, 1.0, horizon=100.0
        )
        second = exponential_sessions(
            np.random.default_rng(2), 2.0, 1.0, horizon=100.0
        )
        assert first != second


class TestSessionEventStream:
    def test_times_sorted_and_paired(self):
        rng = np.random.default_rng(30)
        plans = exponential_sessions(rng, 2.0, 1.0, horizon=50.0)
        events = list(session_event_stream(plans))
        assert len(events) == 2 * len(plans)
        times = [e.time for e in events]
        assert times == sorted(times)
        joins = sum(e.kind is EventKind.JOIN for e in events)
        assert joins == len(plans)

    def test_join_precedes_leave_on_time_ties(self):
        from repro.simulation.churn import SessionPlan

        # Deliberate tie: session 2 arrives exactly when 1 departs.
        plans = [
            SessionPlan(arrival=0.0, departure=1.0),
            SessionPlan(arrival=1.0, departure=2.0),
        ]
        events = list(session_event_stream(plans))
        kinds = [e.kind for e in events]
        assert kinds == [
            EventKind.JOIN,
            EventKind.JOIN,
            EventKind.LEAVE,
            EventKind.LEAVE,
        ]


class TestRegistryFactories:
    """The scenario-facing factories behind CHURN_MODELS."""

    @pytest.fixture
    def params(self, base_params):
        return base_params

    def test_all_factories_yield_events(self, params):
        from repro.scenario.registry import CHURN_MODELS

        for name in CHURN_MODELS.names():
            factory = CHURN_MODELS.get(name)
            rng = np.random.default_rng(5)
            stream = factory(rng, params).events(rng)
            events = list(itertools.islice(stream, 10))
            assert len(events) == 10
            assert all(
                e.kind in (EventKind.JOIN, EventKind.LEAVE) for e in events
            )

    def test_bernoulli_factory_defaults_to_model_p_join(self, params):
        from repro.scenario.registry import CHURN_MODELS

        factory = CHURN_MODELS.get("bernoulli")
        rng = np.random.default_rng(6)
        events = list(
            itertools.islice(factory(rng, params).events(rng), 4000)
        )
        fraction = sum(e.kind is EventKind.JOIN for e in events) / 4000
        assert fraction == pytest.approx(params.p_join, abs=0.03)

    def test_poisson_factory_splits_rate_by_p_join(self, params):
        from repro.scenario.registry import CHURN_MODELS

        factory = CHURN_MODELS.get("poisson")
        rng = np.random.default_rng(7)
        stream = factory(rng, params, rate=10.0).events(rng)
        events = list(itertools.islice(stream, 3000))
        fraction = sum(e.kind is EventKind.JOIN for e in events) / 3000
        assert fraction == pytest.approx(params.p_join, abs=0.03)



class PinnedDraws:
    """A generator stand-in whose draws sit at fixed points of their
    laws: an exponential returns its scale, a Pareto (Lomax) draw 0."""

    def exponential(self, scale=1.0):
        return scale

    def pareto(self, shape):
        return 0.0


class TestOneProcessPerModel:
    """Every tier reads one law per churn model: the batch tier's kind
    law and the timed stream of the scalar and agent tiers are the same
    process."""

    PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, p_join=0.4)
    SESSIONS = ("exponential-sessions", "pareto-sessions")

    @pytest.mark.parametrize("churn", SESSIONS)
    def test_session_stream_plays_the_schedule(self, churn):
        rng = np.random.default_rng(31)
        law = CHURN_MODELS.get(churn)(rng, self.PARAMS, horizon=500.0)
        events = list(law.events(rng))
        assert len(events) == law.schedule.size > 0
        assert [
            event.kind is EventKind.JOIN for event in events
        ] == law.schedule.tolist()
        times = [event.time for event in events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize(
        "churn, options",
        (
            ("exponential-sessions", {"mean_session": 1.0}),
            ("pareto-sessions", {}),
        ),
    )
    def test_session_ties_put_joins_first(self, churn, options):
        # Arrivals land on 1, 2, ..., 5 and every session lasts 1, so
        # each later arrival ties with the previous departure.
        law = CHURN_MODELS.get(churn)(
            PinnedDraws(), self.PARAMS, horizon=6.0, **options
        )
        events = list(law.events(PinnedDraws()))
        assert [event.time for event in events] == [
            1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0, 6.0
        ]
        assert "".join(
            "J" if event.kind is EventKind.JOIN else "L" for event in events
        ) == "JJLJLJLJLL"
        assert law.schedule.tolist() == [
            event.kind is EventKind.JOIN for event in events
        ]

    def test_bernoulli_law_is_the_model_stream(self):
        rng = np.random.default_rng(41)
        law = CHURN_MODELS.get("bernoulli")(rng, self.PARAMS)
        assert law.p_join == self.PARAMS.p_join
        reference = bernoulli_event_stream(
            np.random.default_rng(41), p_join=self.PARAMS.p_join
        )
        assert list(itertools.islice(law.events(rng), 500)) == list(
            itertools.islice(reference, 500)
        )

    def test_poisson_law_is_the_superposition(self):
        rng = np.random.default_rng(42)
        law = CHURN_MODELS.get("poisson")(rng, self.PARAMS, rate=3.0)
        join_rate = 3.0 * self.PARAMS.p_join
        leave_rate = 3.0 * self.PARAMS.p_leave
        assert law.p_join == join_rate / (join_rate + leave_rate)
        reference = poisson_event_stream(
            np.random.default_rng(42), join_rate, leave_rate
        )
        assert list(itertools.islice(law.events(rng), 500)) == list(
            itertools.islice(reference, 500)
        )
