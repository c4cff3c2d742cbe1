"""Unit tests for churn generators."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.parameters import ModelParameters
from repro.scenario.registry import CHURN_MODELS
from repro.simulation import churn as churn_module
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
        arrivals, departures = exponential_sessions(
            rng, 2.0, 5.0, horizon=100.0
        )
        assert arrivals.size
        assert (arrivals < 100.0).all()
        assert (departures > arrivals).all()

    def test_exponential_mean_session(self):
        rng = np.random.default_rng(3)
        arrivals, departures = exponential_sessions(
            rng, 5.0, 4.0, horizon=2000.0
        )
        mean = np.mean(departures - arrivals)
        assert 3.5 < mean < 4.5

    def test_pareto_sessions_heavy_tail(self):
        rng = np.random.default_rng(4)
        arrivals, departures = pareto_sessions(
            rng, 5.0, shape=1.5, scale=1.0, horizon=2000.0
        )
        durations = departures - arrivals
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
        arrivals, _ = exponential_sessions(rng, 3.0, 1.0, horizon=2000.0)
        rate = len(arrivals) / 2000.0
        assert rate == pytest.approx(3.0, rel=0.1)


class TestDistributionMoments:
    """First/second moments of the session-time laws."""

    def test_exponential_session_variance(self):
        rng = np.random.default_rng(10)
        arrivals, departures = exponential_sessions(
            rng, 5.0, 4.0, horizon=4000.0
        )
        durations = departures - arrivals
        # Exponential: Var = mean^2.
        assert durations.mean() == pytest.approx(4.0, rel=0.1)
        assert durations.std() == pytest.approx(4.0, rel=0.1)

    def test_pareto_session_mean_with_finite_variance_shape(self):
        rng = np.random.default_rng(11)
        shape, scale = 2.5, 1.0
        arrivals, departures = pareto_sessions(
            rng, 5.0, shape=shape, scale=scale, horizon=8000.0
        )
        durations = departures - arrivals
        # Lomax+scale parameterization: E = scale * shape / (shape - 1).
        expected_mean = scale * shape / (shape - 1)
        assert durations.mean() == pytest.approx(expected_mean, rel=0.1)

    def test_pareto_tail_heavier_than_exponential(self):
        rng = np.random.default_rng(12)
        pareto = pareto_sessions(rng, 5.0, 1.5, 1.0, horizon=4000.0)
        exponential = exponential_sessions(rng, 5.0, 3.0, horizon=4000.0)
        pareto_durations = pareto[1] - pareto[0]
        exp_durations = exponential[1] - exponential[0]
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
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        first = exponential_sessions(
            np.random.default_rng(1), 2.0, 1.0, horizon=100.0
        )
        second = exponential_sessions(
            np.random.default_rng(2), 2.0, 1.0, horizon=100.0
        )
        assert not np.array_equal(first, second)


class TestSessionEventStream:
    def test_times_sorted_and_paired(self):
        rng = np.random.default_rng(30)
        arrivals, departures = exponential_sessions(
            rng, 2.0, 1.0, horizon=50.0
        )
        events = list(session_event_stream(arrivals, departures))
        assert len(events) == 2 * len(arrivals)
        times = [e.time for e in events]
        assert times == sorted(times)
        joins = sum(e.kind is EventKind.JOIN for e in events)
        assert joins == len(arrivals)

    def test_join_precedes_leave_on_time_ties(self):
        # Deliberate tie: session 2 arrives exactly when 1 departs.
        arrivals = np.array([0.0, 1.0])
        departures = np.array([1.0, 2.0])
        events = list(session_event_stream(arrivals, departures))
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
    """A generator stand-in whose session draws sit at fixed points of
    their laws: every gap draw is 1 and every duration draw is
    ``duration`` (1 for an exponential session of mean 1, 0 for a
    Pareto session's Lomax draw).  Its ``bit_generator.state``
    round-trips."""

    def __init__(self, duration):
        self.duration = duration
        self.bit_generator = SimpleNamespace(state=None)

    def standard_exponential(self, size):
        draws = np.ones(size)
        draws[1::2] = self.duration
        return draws


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
        "churn, options, duration",
        (
            ("exponential-sessions", {"mean_session": 1.0}, 1.0),
            ("pareto-sessions", {}, 0.0),
        ),
    )
    def test_session_ties_put_joins_first(self, churn, options, duration):
        # Arrivals land on 1, 2, ..., 5 and every session lasts 1, so
        # each later arrival ties with the previous departure.
        law = CHURN_MODELS.get(churn)(
            PinnedDraws(duration), self.PARAMS, horizon=6.0, **options
        )
        events = list(law.events(PinnedDraws(duration)))
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


def exponential_sessions_loop(rng, arrival_rate, mean_session, horizon):
    """The per-session reference: one (gap, duration) pair per
    iteration, then the gap that crosses the horizon."""
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(rng.exponential(mean_session))
        plans.append((time, time + duration))
    return plans


def pareto_sessions_loop(rng, arrival_rate, shape, scale, horizon):
    """The per-session reference of :func:`pareto_sessions`."""
    plans = []
    time = 0.0
    while True:
        time += float(rng.exponential(1.0 / arrival_rate))
        if time >= horizon:
            break
        duration = float(scale * (1.0 + rng.pareto(shape)))
        plans.append((time, time + duration))
    return plans


class TestSessionDrawsMatchTheLoop:
    """The array draws equal the per-session loop's bit for bit and
    leave the generator where the loop leaves it."""

    MODELS = {
        "exponential": (
            exponential_sessions,
            exponential_sessions_loop,
            {"mean_session": 10.0},
        ),
        "pareto": (
            pareto_sessions,
            pareto_sessions_loop,
            {"shape": 1.5, "scale": 2.0},
        ),
    }

    def assert_loop_identical(self, model, seed, horizon, arrival_rate):
        draw, loop, options = self.MODELS[model]
        loop_rng = np.random.default_rng(seed)
        plans = loop(loop_rng, arrival_rate, horizon=horizon, **options)
        array_rng = np.random.default_rng(seed)
        arrivals, departures = draw(
            array_rng, arrival_rate, horizon=horizon, **options
        )
        expected = np.array(plans, dtype=float).reshape(-1, 2)
        assert arrivals.dtype == departures.dtype == np.float64
        assert arrivals.tobytes() == expected[:, 0].tobytes()
        assert departures.tobytes() == expected[:, 1].tobytes()
        assert array_rng.random() == loop_rng.random()
        return arrivals.size

    @pytest.mark.parametrize("model", ("exponential", "pareto"))
    @pytest.mark.parametrize("seed", (0, 1, 7, 2011))
    @pytest.mark.parametrize(
        "horizon, arrival_rate",
        # draws / rate differs from draws * (1 / rate) in ~30% of the
        # gaps at these rates; the running sum absorbs most of those
        # last-bit differences, hence several seeds.
        ((300.0, 3.0), (300.0, 0.7)),
    )
    def test_bit_identical_to_the_loop(
        self, model, seed, horizon, arrival_rate
    ):
        assert self.assert_loop_identical(model, seed, horizon, arrival_rate)

    @pytest.mark.parametrize("model", ("exponential", "pareto"))
    @pytest.mark.parametrize("seed", (0, 1, 7, 2011))
    def test_horizon_before_the_first_gap(self, model, seed):
        assert self.assert_loop_identical(model, seed, 1e-9, 1.0) == 0

    @pytest.mark.parametrize("model", ("exponential", "pareto"))
    def test_second_block(self, model):
        block = churn_module.SESSION_BLOCK
        count = self.assert_loop_identical(model, 3, 1.5 * block, 1.0)
        assert count > block

    @pytest.mark.parametrize("model", ("exponential", "pareto"))
    @pytest.mark.parametrize("seed", (0, 1, 7, 2011))
    def test_many_short_blocks(self, model, seed, monkeypatch):
        monkeypatch.setattr(churn_module, "SESSION_BLOCK", 5)
        count = self.assert_loop_identical(model, seed, 100.0, 3.0)
        assert count > 10 * 5
