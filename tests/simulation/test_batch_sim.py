"""Batch Monte-Carlo engine: equivalence with the scalar oracle.

Three families of checks:

* statistical -- seeded batch runs must match the scalar member-list
  simulator (and the closed forms both are validated against) within
  tolerance: per-state occupancy, absorption-class frequencies,
  expected times and first sojourns;
* exact -- the batch ``CompetingSeries`` must reproduce the scalar
  recording semantics bit for bit (event axis, shapes, bounds) and be
  deterministic under a fixed seed;
* variant -- every registered adversary x churn combination must run
  on the batch tier (skip sampling for i.i.d. kinds, lane-tiled
  schedules for sessions) and agree with both the policy chain's
  closed forms and the scalar oracle.
"""

import numpy as np
import pytest

from repro.core.cluster_model import ClusterModel
from repro.core.parameters import ModelParameters
from repro.core.policies import COUNT_POLICIES
from repro.core.statespace import State
from repro.core.variants import build_policy_chain
from repro.simulation.batch import (
    BatchClusterEngine,
    BatchCompetingClustersSimulation,
    BatchTrajectories,
    TrajectorySummaryAccumulator,
    batch_monte_carlo_summary,
    run_batch_trajectories,
)
from repro.core.transitions import (
    CODE_POLLUTED_SPLIT,
    CODE_SAFE_MERGE,
    CODE_SAFE_SPLIT,
)
from repro.simulation.cluster_sim import (
    ClusterSimulator,
    SimulationBudgetError,
    monte_carlo_summary,
)
from repro.simulation.overlay_sim import CompetingClustersSimulation

ATTACK = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.8)


def make_engine(params=ATTACK, seed=12345):
    return BatchClusterEngine(params, np.random.default_rng(seed))


#: A fixed kind schedule (True = join) for the schedule advance step.
SCHEDULE = np.random.default_rng(2011).random(4096) < 0.5
#: The lane loop's three advance steps.
ADVANCE_STEPS = ("event", "skip", "schedule")


def advance_step(step, params=ATTACK, seed=12345):
    """An engine and the ``run_batch_trajectories`` keywords that play
    one advance step."""
    rng = np.random.default_rng(seed)
    if step == "schedule":
        engine = BatchClusterEngine(params, rng, with_kind_rows=True)
        return engine, {"kind_schedule": SCHEDULE}
    return BatchClusterEngine(params, rng), {"mode": step}


class TestBatchEngine:
    def test_initial_indices_delta_is_deterministic(self):
        engine = make_engine()
        indices = engine.sample_initial_indices(50, "delta")
        assert len(set(indices.tolist())) == 1
        assert engine.is_transient(indices).all()
        assert not engine.is_polluted(indices).any()

    def test_initial_indices_beta_all_transient(self):
        engine = make_engine(ModelParameters(mu=0.3, d=0.5))
        indices = engine.sample_initial_indices(500, "beta")
        assert engine.is_transient(indices).all()
        assert len(set(indices.tolist())) > 1

    def test_unknown_initial_law_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.sample_initial_indices(5, "gamma")

    def test_explicit_state_initial(self):
        engine = make_engine()
        state = State(3, 2, 1)
        indices = engine.sample_initial_indices(4, state)
        assert (indices == engine.rows.index_of(state)).all()

    def test_step_stays_inside_model_space(self):
        engine = make_engine()
        indices = engine.sample_initial_indices(200, "beta")
        for _ in range(30):
            indices = engine.step(indices)
            assert (0 <= indices).all()
            assert (indices < engine.rows.n_states).all()

    def test_absorbing_states_self_loop(self):
        engine = make_engine()
        absorbed = np.flatnonzero(~engine.is_transient(
            np.arange(engine.rows.n_states)
        ))
        landed = engine.step(absorbed.astype(np.intp))
        assert (landed == absorbed).all()

    def test_occupancy_matches_transient_law(self):
        """Empirical per-state occupancy tracks the chain's exact law.

        After t lockstep transitions from delta, the batch population's
        distribution over transient states must match
        ``ClusterModel.transient_law`` -- this exercises the padded-row
        searchsorted sampling against the analytically correct law.
        """
        params = ATTACK
        model = ClusterModel(params)
        chain = model.chain
        engine = make_engine(params, seed=99)
        n = 40_000
        steps = 6
        indices = engine.sample_initial_indices(n, "delta")
        for _ in range(steps):
            indices = engine.step(indices)
        law = model.transient_law("delta", steps)
        counts = np.bincount(indices, minlength=engine.rows.n_states)
        n_transient = law.shape[0]
        empirical = counts[:n_transient] / n
        total_variation = 0.5 * np.abs(empirical - law).sum()
        # Mass absorbed so far must agree too.
        assert counts[:n_transient].sum() / n == pytest.approx(
            law.sum(), abs=0.02
        )
        assert total_variation < 0.02

    @pytest.mark.parametrize("step", ADVANCE_STEPS)
    def test_absorbing_initial_yields_zero_step_trajectories(self, step):
        """Parity with the scalar oracle on a closed initial state."""
        engine, keywords = advance_step(step)
        result = run_batch_trajectories(
            engine, 10, initial=State(0, 0, 0), **keywords
        )
        assert (result.steps == 0).all()
        assert (result.time_safe == 0).all()
        assert (result.time_polluted == 0).all()
        assert (result.absorbed_code == CODE_SAFE_MERGE).all()
        oracle = ClusterSimulator(ATTACK, np.random.default_rng(0)).run(
            initial=State(0, 0, 0)
        )
        assert oracle.steps == 0
        assert oracle.absorbed_in == "safe-merge"

    @pytest.mark.parametrize("step", ADVANCE_STEPS)
    def test_budget_error_raised(self, step):
        params = ModelParameters(mu=0.0, d=0.0)
        engine, keywords = advance_step(step, params)
        with pytest.raises(SimulationBudgetError):
            run_batch_trajectories(engine, 50, max_steps=2, **keywords)

    @pytest.mark.parametrize("step", ADVANCE_STEPS)
    def test_budget_beyond_int64_accepted(self, step):
        engine, keywords = advance_step(step)
        result = run_batch_trajectories(
            engine, 20, max_steps=10**20, **keywords
        )
        assert (result.steps > 0).all()

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            run_batch_trajectories(make_engine(), 0)

    def test_schedule_validated(self):
        engine, _ = advance_step("schedule")
        with pytest.raises(ValueError, match="non-empty"):
            run_batch_trajectories(
                engine, 5, kind_schedule=np.zeros(0, dtype=bool)
            )
        with pytest.raises(ValueError, match="skip mode"):
            run_batch_trajectories(
                engine, 5, mode="skip", kind_schedule=SCHEDULE
            )


class TestBatchTrajectoryEquivalence:
    @pytest.fixture(scope="class")
    def batch_summary(self):
        rng = np.random.default_rng(20110627)
        return batch_monte_carlo_summary(ATTACK, rng, runs=20_000)

    @pytest.fixture(scope="class")
    def scalar_summary(self):
        rng = np.random.default_rng(20110627)
        return monte_carlo_summary(ATTACK, rng, runs=2_000)

    @pytest.fixture(scope="class")
    def analytic(self):
        return ClusterModel(ATTACK)

    def test_times_match_scalar_and_closed_form(
        self, batch_summary, scalar_summary, analytic
    ):
        fate = analytic.cluster_fate("delta")
        assert batch_summary.mean_time_safe == pytest.approx(
            fate.expected_time_safe, rel=0.03
        )
        assert batch_summary.mean_time_safe == pytest.approx(
            scalar_summary.mean_time_safe, rel=0.08
        )
        assert batch_summary.mean_time_polluted == pytest.approx(
            fate.expected_time_polluted, rel=0.15, abs=0.05
        )

    def test_absorption_frequencies_match(
        self, batch_summary, scalar_summary, analytic
    ):
        fate = analytic.cluster_fate("delta")
        assert batch_summary.p_safe_merge == pytest.approx(
            fate.p_safe_merge, abs=0.02
        )
        assert batch_summary.p_safe_split == pytest.approx(
            fate.p_safe_split, abs=0.02
        )
        assert batch_summary.p_polluted_merge == pytest.approx(
            fate.p_polluted_merge, abs=0.01
        )
        for attribute in ("p_safe_merge", "p_safe_split", "p_polluted_merge"):
            assert getattr(batch_summary, attribute) == pytest.approx(
                getattr(scalar_summary, attribute), abs=0.04
            )
        total = (
            batch_summary.p_safe_merge
            + batch_summary.p_safe_split
            + batch_summary.p_polluted_merge
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_first_sojourns_match_relations_7_8(self, batch_summary, analytic):
        profile = analytic.sojourn_profile("delta", depth=1)
        assert batch_summary.mean_first_safe_sojourn == pytest.approx(
            profile.safe_sojourns[0], rel=0.03
        )
        assert batch_summary.mean_first_polluted_sojourn == pytest.approx(
            profile.polluted_sojourns[0], rel=0.15, abs=0.05
        )

    def test_beta_initial_matches_closed_form(self):
        params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.5)
        rng = np.random.default_rng(7)
        summary = batch_monte_carlo_summary(
            params, rng, runs=20_000, initial="beta"
        )
        fate = ClusterModel(params).cluster_fate("beta")
        assert summary.mean_time_safe == pytest.approx(
            fate.expected_time_safe, rel=0.03
        )
        assert summary.p_polluted_merge == pytest.approx(
            fate.p_polluted_merge, abs=0.01
        )

    def test_quarter_attack_matches_closed_form(self):
        params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.8)
        summary = batch_monte_carlo_summary(
            params, np.random.default_rng(20110627), runs=20_000
        )
        fate = ClusterModel(params).cluster_fate("delta")
        assert summary.mean_time_safe == pytest.approx(
            fate.expected_time_safe, rel=0.03
        )
        assert summary.p_safe_merge == pytest.approx(
            fate.p_safe_merge, abs=0.02
        )
        assert summary.p_polluted_merge == pytest.approx(
            fate.p_polluted_merge, abs=0.01
        )

    def test_deterministic_under_seed(self):
        first = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(42), runs=500
        )
        second = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(42), runs=500
        )
        assert first == second


class TestBatchCompetingSeries:
    def test_event_axis_exactly_matches_scalar(self):
        """Recording semantics are unchanged engine to engine."""
        for n_events, record_every in [(100, 30), (100, 100), (7, 10), (500, 50)]:
            batch = CompetingClustersSimulation(
                ATTACK, 20, np.random.default_rng(1), engine="batch"
            ).run(n_events, record_every=record_every)
            scalar = CompetingClustersSimulation(
                ATTACK, 20, np.random.default_rng(1), engine="scalar"
            ).run(n_events, record_every=record_every)
            assert batch.events.tolist() == scalar.events.tolist()
            assert batch.safe_fraction.shape == scalar.safe_fraction.shape
            assert batch.polluted_fraction.shape == scalar.polluted_fraction.shape
            assert batch.n_clusters == scalar.n_clusters

    def test_series_starts_all_safe_under_delta(self):
        series = CompetingClustersSimulation(
            ATTACK, 25, np.random.default_rng(3)
        ).run(200, record_every=20)
        assert series.safe_fraction[0] == 1.0
        assert series.polluted_fraction[0] == 0.0

    def test_fractions_bounded_and_monotone_population(self):
        series = CompetingClustersSimulation(
            ModelParameters(mu=0.3, d=0.9), 300, np.random.default_rng(5)
        ).run(2000, record_every=100)
        total = series.safe_fraction + series.polluted_fraction
        assert np.all(total <= 1.0 + 1e-12)
        assert np.all(series.safe_fraction >= 0.0)
        assert np.all(series.polluted_fraction >= 0.0)

    def test_occupancy_tracks_scalar_engine(self):
        """Same population, same horizon: the two engines' mean occupancy
        curves agree (averaged over seeded replications)."""
        params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.9)
        n_clusters, n_events, record = 50, 1500, 300
        curves = {}
        for engine in ("batch", "scalar"):
            safe = []
            for replication in range(12):
                series = CompetingClustersSimulation(
                    params,
                    n_clusters,
                    np.random.default_rng(300 + replication),
                    engine=engine,
                ).run(n_events, record_every=record)
                safe.append(series.safe_fraction)
            curves[engine] = np.mean(safe, axis=0)
        gap = np.max(np.abs(curves["batch"] - curves["scalar"]))
        assert gap < 0.06

    def test_deterministic_under_seed(self):
        runs = [
            BatchCompetingClustersSimulation(
                ATTACK, 100, np.random.default_rng(11)
            ).run(500, record_every=100)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].safe_fraction, runs[1].safe_fraction)
        assert np.array_equal(
            runs[0].polluted_fraction, runs[1].polluted_fraction
        )

    def test_all_clusters_eventually_absorb(self):
        series = CompetingClustersSimulation(
            ModelParameters(mu=0.1, d=0.5), 50, np.random.default_rng(9)
        ).run(30_000, record_every=10_000)
        assert series.safe_fraction[-1] + series.polluted_fraction[-1] < 0.05

    def test_absorbing_initial_handled_identically_by_both_engines(self):
        """Initially-merged clusters start absorbed on both engines: no
        events reach them and the occupancy series stays flat at zero."""
        for engine in ("batch", "scalar"):
            series = CompetingClustersSimulation(
                ATTACK,
                8,
                np.random.default_rng(2),
                initial=State(0, 0, 0),
                engine=engine,
            ).run(50, record_every=10)
            assert np.all(series.safe_fraction == 0.0), engine
            assert np.all(series.polluted_fraction == 0.0), engine

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            CompetingClustersSimulation(ATTACK, 0, rng)
        with pytest.raises(ValueError):
            CompetingClustersSimulation(ATTACK, 5, rng, engine="quantum")

    def test_engine_property(self):
        rng = np.random.default_rng(0)
        assert CompetingClustersSimulation(ATTACK, 5, rng).engine == "batch"
        assert (
            CompetingClustersSimulation(ATTACK, 5, rng, engine="scalar").engine
            == "scalar"
        )


class TestSkipMode:
    """Event-axis geometric skip sampling: exact in law, fewer draws."""

    def test_matches_closed_form(self):
        fate = ClusterModel(ATTACK).cluster_fate("delta")
        summary = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(31), runs=30_000, mode="skip"
        )
        assert summary.mean_time_safe == pytest.approx(
            fate.expected_time_safe, rel=0.03
        )
        assert summary.mean_time_polluted == pytest.approx(
            fate.expected_time_polluted, rel=0.15, abs=0.05
        )
        assert summary.p_polluted_merge == pytest.approx(
            fate.p_polluted_merge, abs=0.01
        )

    def test_matches_event_mode_statistics(self):
        skip = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(5), runs=20_000, mode="skip"
        )
        event = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(5), runs=20_000, mode="event"
        )
        assert skip.mean_time_safe == pytest.approx(
            event.mean_time_safe, rel=0.05
        )
        assert skip.p_safe_split == pytest.approx(
            event.p_safe_split, abs=0.02
        )
        assert skip.mean_first_safe_sojourn == pytest.approx(
            event.mean_first_safe_sojourn, rel=0.05
        )

    def test_deterministic_under_seed(self):
        runs = [
            batch_monte_carlo_summary(
                ATTACK, np.random.default_rng(8), runs=400, mode="skip"
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("step", ADVANCE_STEPS)
    def test_budget_error_raised(self, step):
        params = ModelParameters(mu=0.0, d=0.0)
        engine, keywords = advance_step(step, params, seed=0)
        with pytest.raises(SimulationBudgetError):
            run_batch_trajectories(engine, 50, max_steps=2, **keywords)

    def test_unknown_mode_rejected(self):
        engine = BatchClusterEngine(ATTACK, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mode"):
            run_batch_trajectories(engine, 5, mode="warp")

    def test_dwell_is_geometric(self):
        """The dwell law of a self-looping state is Geometric(1-p_stay)."""
        engine = BatchClusterEngine(ATTACK, np.random.default_rng(17))
        rows = engine.rows
        own = rows.targets == np.arange(rows.n_states)[:, None]
        stay = np.where(own, rows.probs, 0.0).sum(axis=1)
        transient = np.flatnonzero(
            engine.is_transient(np.arange(rows.n_states)) & (stay > 0.2)
        )
        index = int(transient[0])
        draws = engine.skip_dwell(
            np.full(50_000, index, dtype=np.intp), cap=10**6
        )
        expected = 1.0 / (1.0 - stay[index])
        assert draws.min() >= 1
        assert draws.mean() == pytest.approx(expected, rel=0.05)


class TestChunkedSummary:
    def test_chunked_matches_unchunked_statistics(self):
        whole = batch_monte_carlo_summary(
            ATTACK, np.random.default_rng(3), runs=24_000, mode="skip"
        )
        chunked = batch_monte_carlo_summary(
            ATTACK,
            np.random.default_rng(3),
            runs=24_000,
            mode="skip",
            chunk_size=5_000,
        )
        assert chunked.runs == 24_000
        assert chunked.mean_time_safe == pytest.approx(
            whole.mean_time_safe, rel=0.04
        )
        assert chunked.p_polluted_merge == pytest.approx(
            whole.p_polluted_merge, abs=0.01
        )
        assert (
            chunked.p_safe_merge
            + chunked.p_safe_split
            + chunked.p_polluted_merge
        ) == pytest.approx(1.0, abs=1e-12)

    def test_chunked_deterministic(self):
        runs = [
            batch_monte_carlo_summary(
                ATTACK,
                np.random.default_rng(3),
                runs=3_000,
                chunk_size=1_000,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_accumulator_matches_direct_formulas(self):
        """One chunk reduces bit for bit as numpy's mean() and std()."""
        for mode in ("event", "skip"):
            engine = BatchClusterEngine(ATTACK, np.random.default_rng(12))
            batch = run_batch_trajectories(engine, 4_000, mode=mode)
            accumulator = TrajectorySummaryAccumulator()
            accumulator.update(batch)
            summary = accumulator.summary()
            scale = np.sqrt(batch.runs - 1)
            safe = batch.time_safe.astype(np.float64)
            polluted = batch.time_polluted.astype(np.float64)
            assert summary.runs == batch.runs
            assert summary.mean_time_safe == safe.mean()
            assert summary.mean_time_polluted == polluted.mean()
            assert summary.sem_time_safe == safe.std() / scale
            assert summary.sem_time_polluted == polluted.std() / scale
            assert summary.p_safe_split == np.isin(
                batch.absorbed_code, (CODE_SAFE_SPLIT, CODE_POLLUTED_SPLIT)
            ).mean()

    def test_chunks_merge_without_cancellation(self):
        """Times near 1e8 with a spread of order 1: the centred moments
        merge to the exact standard error, which ``E[x^2] - E[x]^2``
        loses.  Safe times repeat one chunk; polluted times shift by one
        per chunk, so the merge's between-chunk term counts too."""
        parity = np.arange(1_000, dtype=np.int32) % 2
        accumulator = TrajectorySummaryAccumulator()
        for shift in range(4):
            safe = 10**8 + parity
            polluted = 10**8 + shift + parity
            accumulator.update(
                BatchTrajectories(
                    runs=1_000,
                    steps=safe + polluted,
                    time_safe=safe,
                    time_polluted=polluted,
                    absorbed_code=np.full(
                        1_000, CODE_SAFE_MERGE, dtype=np.int8
                    ),
                    first_safe_sojourn=safe,
                    first_polluted_sojourn=polluted,
                )
            )
        summary = accumulator.summary()
        assert summary.mean_time_safe == 10**8 + 0.5
        assert summary.mean_time_polluted == 10**8 + 2.0
        # Safe variance 0.25; polluted values 1e8 + {0, ..., 4} with
        # weights 1, 2, 2, 2, 1 have variance 1.5.
        assert summary.sem_time_safe == 0.5 / np.sqrt(3_999)
        assert summary.sem_time_polluted == pytest.approx(
            np.sqrt(1.5 / 3_999), rel=1e-12
        )
        assert summary.p_safe_merge == 1.0

    def test_memory_lean_dtypes(self):
        engine = BatchClusterEngine(ATTACK, np.random.default_rng(1))
        batch = run_batch_trajectories(engine, 500, mode="skip")
        assert batch.steps.dtype == np.int32
        assert batch.time_safe.dtype == np.int32

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            batch_monte_carlo_summary(
                ATTACK, np.random.default_rng(0), runs=10, chunk_size=0
            )


class TestEventAxisCompeting:
    def test_event_axis_matches_recording_semantics(self):
        for n_events, record_every in [(100, 30), (100, 100), (7, 10)]:
            per_event = BatchCompetingClustersSimulation(
                ATTACK, 20, np.random.default_rng(1)
            ).run(n_events, record_every=record_every)
            event_axis = BatchCompetingClustersSimulation(
                ATTACK, 20, np.random.default_rng(1), event_batching=True
            ).run(n_events, record_every=record_every)
            assert per_event.events.tolist() == event_axis.events.tolist()
            assert (
                per_event.safe_fraction.shape
                == event_axis.safe_fraction.shape
            )

    def test_occupancy_tracks_per_event_engine(self):
        """Replication-averaged curves of the two dispatchers agree."""
        params = ModelParameters(
            core_size=7, spare_max=7, k=1, mu=0.25, d=0.9
        )
        curves = {}
        for event_batching in (False, True):
            safe = []
            for replication in range(10):
                series = BatchCompetingClustersSimulation(
                    params,
                    400,
                    np.random.default_rng(700 + replication),
                    event_batching=event_batching,
                ).run(6_000, record_every=1_000)
                safe.append(series.safe_fraction)
            curves[event_batching] = np.mean(safe, axis=0)
        gap = np.max(np.abs(curves[True] - curves[False]))
        assert gap < 0.04

    def test_deterministic_under_seed(self):
        runs = [
            BatchCompetingClustersSimulation(
                ATTACK, 100, np.random.default_rng(11), event_batching=True
            ).run(500, record_every=100)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].safe_fraction, runs[1].safe_fraction)

    def test_absorbing_initial_stays_flat(self):
        series = BatchCompetingClustersSimulation(
            ATTACK,
            8,
            np.random.default_rng(2),
            initial=State(0, 0, 0),
            event_batching=True,
        ).run(50, record_every=10)
        assert np.all(series.safe_fraction == 0.0)
        assert np.all(series.polluted_fraction == 0.0)

    def test_all_clusters_eventually_absorb(self):
        series = BatchCompetingClustersSimulation(
            ModelParameters(mu=0.1, d=0.5),
            50,
            np.random.default_rng(9),
            event_batching=True,
        ).run(30_000, record_every=10_000)
        assert (
            series.safe_fraction[-1] + series.polluted_fraction[-1] < 0.05
        )


VARIANT_PARAMS = ModelParameters(
    core_size=7, spare_max=7, k=3, mu=0.2, d=0.85
)

ADVERSARY_NAMES = ("strong", "passive", "greedy-leave")


class TestVariantEquivalence:
    """Property-style matrix: every adversary x churn kind on the batch
    tier agrees with the policy chain's closed forms and the scalar
    member-list oracle (seeded, tolerant)."""

    @pytest.fixture(scope="class")
    def chains(self):
        return {
            name: build_policy_chain(
                VARIANT_PARAMS, COUNT_POLICIES[name]
            )
            for name in ADVERSARY_NAMES
        }

    @staticmethod
    def _closed_forms(chain):
        """Expected phase times and absorption mass from the chain's
        fundamental matrix (works for any policy chain, polluted-split
        class included)."""
        from repro.core.statespace import Category

        transient = chain.transient_matrix
        size = transient.shape[0]
        start = chain.transient_index_of(
            State(VARIANT_PARAMS.spare_max // 2, 0, 0)
        )
        alpha = np.zeros(size)
        alpha[start] = 1.0
        occupancy = np.linalg.solve(
            (np.eye(size) - transient).T, alpha
        )
        absorption = {
            category: float(
                occupancy @ chain.absorbing_block(category).sum(axis=1)
            )
            for category in chain.closed_categories
        }
        return (
            float(occupancy @ chain.safe_indicator()),
            absorption.get(Category.POLLUTED_MERGE, 0.0),
        )

    @pytest.mark.parametrize("adversary", ADVERSARY_NAMES)
    def test_iid_kinds_match_policy_chain(self, adversary, chains):
        """Bernoulli/Poisson churn reduce to the mixed policy rows; the
        skip-mode batch run must sit on the chain's closed forms."""
        expected_safe, p_polluted_merge = self._closed_forms(
            chains[adversary]
        )
        summary = batch_monte_carlo_summary(
            VARIANT_PARAMS,
            np.random.default_rng(41),
            runs=20_000,
            adversary=adversary,
            mode="skip",
        )
        assert summary.mean_time_safe == pytest.approx(
            expected_safe, rel=0.04
        )
        assert summary.p_polluted_merge == pytest.approx(
            p_polluted_merge, abs=0.01
        )

    @pytest.mark.parametrize("adversary", ADVERSARY_NAMES)
    def test_iid_kinds_match_scalar_oracle(self, adversary):
        batch = batch_monte_carlo_summary(
            VARIANT_PARAMS,
            np.random.default_rng(43),
            runs=12_000,
            adversary=adversary,
            mode="skip",
        )
        scalar = monte_carlo_summary(
            VARIANT_PARAMS,
            np.random.default_rng(43),
            runs=1_500,
            adversary=adversary,
        )
        assert batch.mean_time_safe == pytest.approx(
            scalar.mean_time_safe, rel=0.08
        )
        assert batch.p_polluted_merge == pytest.approx(
            scalar.p_polluted_merge, abs=0.02
        )

    @pytest.mark.parametrize("adversary", ADVERSARY_NAMES)
    @pytest.mark.parametrize(
        "churn", ("exponential-sessions", "pareto-sessions")
    )
    def test_session_schedules_match_scalar_oracle(self, adversary, churn):
        """Lane-tiled schedule consumption reproduces the oracle's
        sequential stream design within statistical tolerance."""
        from repro.scenario.registry import CHURN_KIND_LAWS, CHURN_MODELS

        options = {"horizon": 150_000.0}
        law = CHURN_KIND_LAWS.get(churn)(
            np.random.default_rng(7), VARIANT_PARAMS, **options
        )
        batch = batch_monte_carlo_summary(
            VARIANT_PARAMS,
            np.random.default_rng(47),
            runs=8_000,
            adversary=adversary,
            kind_schedule=law.schedule,
        )
        rng = np.random.default_rng(7)
        stream = CHURN_MODELS.get(churn)(
            rng, VARIANT_PARAMS, **options
        ).events(rng)
        scalar = monte_carlo_summary(
            VARIANT_PARAMS,
            np.random.default_rng(47),
            runs=1_200,
            adversary=adversary,
            events=stream,
        )
        assert batch.mean_time_safe == pytest.approx(
            scalar.mean_time_safe, rel=0.12
        )
        assert batch.p_polluted_merge == pytest.approx(
            scalar.p_polluted_merge, abs=0.025
        )

    def test_variant_rows_reject_unknown_adversary(self):
        with pytest.raises(ValueError, match="unknown count-level"):
            batch_monte_carlo_summary(
                VARIANT_PARAMS,
                np.random.default_rng(0),
                runs=10,
                adversary="martian",
            )
