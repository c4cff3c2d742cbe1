"""Unit tests for the Figure-2 transition tree."""

import pytest

from repro.core.parameters import ModelParameters
from repro.core.statespace import State, StateSpace, StateSpaceError
from repro.core.transitions import transition_distribution


def law(state, **overrides):
    params = ModelParameters(**overrides)
    return transition_distribution(State(*state), params)


class TestStructure:
    def test_rows_are_probability_distributions(self):
        params = ModelParameters(mu=0.25, d=0.85, k=3)
        space = StateSpace(params)
        for state in space.transient:
            total = sum(transition_distribution(state, params).values())
            assert total == pytest.approx(1.0), f"state {tuple(state)}"

    def test_targets_stay_in_model_space(self):
        params = ModelParameters(mu=0.3, d=0.9, k=7)
        space = StateSpace(params)
        for state in space.transient:
            for target in transition_distribution(state, params):
                assert space.contains(target)
                # Rule 2 keeps polluted-split states unreachable.
                space.index_of(target)

    def test_closed_states_rejected(self):
        with pytest.raises(StateSpaceError, match="transient"):
            law((0, 0, 0))
        with pytest.raises(StateSpaceError, match="transient"):
            law((7, 0, 0))

    def test_spare_moves_at_most_one(self):
        result = law((3, 2, 1), mu=0.2, d=0.8, k=2)
        for target in result:
            assert abs(target.s - 3) <= 1


class TestFailureFreeWalk:
    def test_mu0_is_pure_random_walk(self):
        result = law((3, 0, 0), mu=0.0, d=0.0)
        assert result == {
            State(4, 0, 0): pytest.approx(0.5),
            State(2, 0, 0): pytest.approx(0.5),
        }

    def test_mu0_edges_reach_closed_states(self):
        up = law((6, 0, 0), mu=0.0)
        assert up[State(7, 0, 0)] == pytest.approx(0.5)
        down = law((1, 0, 0), mu=0.0)
        assert down[State(0, 0, 0)] == pytest.approx(0.5)


class TestJoinBranch:
    def test_safe_join_splits_by_mu(self):
        result = law((3, 1, 1), mu=0.2)
        assert result[State(4, 1, 2)] == pytest.approx(0.5 * 0.2)
        assert result[State(4, 1, 1)] == pytest.approx(0.5 * 0.8)

    def test_polluted_join_discards_honest(self):
        result = law((3, 5, 0), mu=0.2, d=1.0)
        # Honest join dropped: self-loop collects p_j (1 - mu) plus the
        # whole leave branch (all members malicious or stay).
        assert result[State(4, 5, 1)] == pytest.approx(0.5 * 0.2)

    def test_polluted_join_admits_honest_at_s1(self):
        result = law((1, 5, 0), mu=0.2, d=1.0)
        assert result[State(2, 5, 0)] == pytest.approx(0.5 * 0.8)
        assert result[State(2, 5, 1)] == pytest.approx(0.5 * 0.2)

    def test_polluted_split_prevention_at_edge(self):
        result = law((6, 5, 2), mu=0.2, d=1.0)
        # No target with s = 7 may exist.
        assert all(target.s <= 6 for target in result)


class TestLeaveBranch:
    def test_honest_spare_leave_probability(self):
        # State (3, 0, 1) with d=1.  Target (2, 0, 1) collects the
        # honest spare leave, p_l (1-p_c)(1-p_ms) = 0.5 * 0.3 * 2/3,
        # plus the honest core leave whose k=1 maintenance promotes an
        # honest spare, 0.5 * 0.7 * 1 * 2/3.
        result = law((3, 0, 1), mu=0.0, d=1.0)
        spare_leave = 0.5 * (3 / 10) * (2 / 3)
        core_leave_honest_promotion = 0.5 * (7 / 10) * (2 / 3)
        assert result[State(2, 0, 1)] == pytest.approx(
            spare_leave + core_leave_honest_promotion
        )
        # The disjoint target (2, 1, 0) isolates the malicious
        # promotion of the core-leave maintenance.
        assert result[State(2, 1, 0)] == pytest.approx(
            0.5 * (7 / 10) * (1 / 3)
        )

    def test_malicious_spare_pinned_at_d1(self):
        result = law((3, 0, 3), mu=0.0, d=1.0)
        # All spares malicious and immortal; only core (honest) leaves
        # can move the state.
        assert State(2, 0, 2) not in result

    def test_malicious_spare_expires_at_d0(self):
        result = law((3, 0, 1), mu=0.0, d=0.0)
        weight = 0.5 * (3 / 10) * (1 / 3)
        assert result[State(2, 0, 0)] == pytest.approx(weight)

    def test_honest_core_leave_polluted_promotes_malicious(self):
        result = law((3, 3, 2), mu=0.0, d=1.0)
        weight = 0.5 * (7 / 10) * (4 / 7)
        assert result[State(2, 4, 1)] == pytest.approx(weight)

    def test_honest_core_leave_polluted_no_spare_malicious(self):
        # Target (2, 3, 0) collects the honest core leave (replaced by
        # an honest spare, y = 0) plus the honest spare leave.
        result = law((3, 3, 0), mu=0.0, d=1.0)
        core_leave = 0.5 * (7 / 10) * (4 / 7)
        spare_leave = 0.5 * (3 / 10) * 1.0
        assert result[State(2, 3, 0)] == pytest.approx(
            core_leave + spare_leave
        )

    def test_forced_malicious_leave_keeps_quorum_with_bias(self):
        # x = 4: after a forced expiry x - 1 = 3 > c, the quorum
        # survives and pulls in the malicious spare -> (2, 4, 0).  The
        # same target also collects the forced malicious *spare* leave.
        result = law((3, 4, 1), mu=0.0, d=0.0)
        forced_core = 0.5 * (7 / 10) * (4 / 7)
        forced_spare = 0.5 * (3 / 10) * (1 / 3)
        assert result[State(2, 4, 0)] == pytest.approx(
            forced_core + forced_spare
        )

    def test_forced_malicious_leave_at_quorum_boundary_randomizes(self):
        # x = 3 = c + 1: after the departure x - 1 = 2 <= c, so the
        # honest maintenance runs (hypergeometric outcome, k = 1).
        result = law((3, 3, 1), mu=0.0, d=0.0, k=1)
        forced_core = 0.5 * (7 / 10) * (3 / 7)
        forced_spare = 0.5 * (3 / 10) * (1 / 3)
        # (2, 3, 0): maintenance promotes the malicious spare (1/3),
        # plus the forced malicious spare leave landing on the same
        # coordinates.
        assert result[State(2, 3, 0)] == pytest.approx(
            forced_core * (1 / 3) + forced_spare
        )
        # (2, 2, 1): maintenance promotes an honest spare (2/3).
        assert result[State(2, 2, 1)] == pytest.approx(
            forced_core * (2 / 3)
        )

    def test_safe_malicious_core_sits_tight_without_rule1(self):
        # k = 1: no voluntary leaves; valid ids mean a self-loop.
        result = law((3, 2, 1), mu=0.0, d=1.0, k=1)
        self_loop = result[State(3, 2, 1)]
        weight = 0.5 * (7 / 10) * (2 / 7) + 0.5 * (3 / 10) * (1 / 3)
        assert self_loop == pytest.approx(weight)


class TestRule1InTree:
    def test_voluntary_leave_changes_law_for_k7(self):
        favorable = State(6, 1, 6)
        with_rule1 = transition_distribution(
            favorable, ModelParameters(k=7, mu=0.0, d=1.0, nu=0.1)
        )
        # Rule 1 fires: mass flows to maintenance outcomes instead of a
        # pure self-loop on the malicious-core branch.
        moved = sum(p for t, p in with_rule1.items() if t.s == 5)
        assert moved > 0.0

    def test_no_voluntary_leave_when_s_is_1(self):
        # Even in a favorable composition the adversary avoids merges.
        state = State(1, 1, 1)
        result = transition_distribution(
            state, ModelParameters(k=7, mu=0.0, d=1.0, nu=0.5)
        )
        # The malicious core member's no-expiry branch self-loops.
        assert result.get(state, 0.0) > 0.0


class TestMemoization:
    def test_repeated_calls_share_the_derivation(self):
        from repro.core.transitions import _transition_items

        params = ModelParameters(mu=0.15, d=0.7, k=2)
        state = State(3, 1, 1)
        first = _transition_items(state, params)
        second = _transition_items(state, params)
        assert first is second  # cached tuple, derived once

    def test_returned_dict_is_a_fresh_copy(self):
        params = ModelParameters(mu=0.2, d=0.8)
        state = State(2, 1, 0)
        law_a = transition_distribution(state, params)
        law_a.clear()  # caller mutation must not poison the cache
        law_b = transition_distribution(state, params)
        assert law_b
        assert sum(law_b.values()) == pytest.approx(1.0)

    def test_distinct_params_get_distinct_laws(self):
        state = State(3, 2, 1)
        law_a = transition_distribution(state, ModelParameters(mu=0.1, d=0.5))
        law_b = transition_distribution(state, ModelParameters(mu=0.3, d=0.5))
        assert law_a != law_b


class TestTransitionRows:
    def test_rows_are_memoized_per_params(self):
        from repro.core.transitions import transition_rows

        params = ModelParameters(mu=0.25, d=0.9, k=2)
        assert transition_rows(params) is transition_rows(params)
        other = ModelParameters(mu=0.25, d=0.9, k=3)
        assert transition_rows(params) is not transition_rows(other)

    def test_rows_match_transition_distribution(self):
        from repro.core.transitions import transition_rows

        params = ModelParameters(mu=0.2, d=0.85, k=3)
        rows = transition_rows(params)
        space = StateSpace(params)
        for state in space.transient:
            index = space.index_of(state)
            law = transition_distribution(state, params)
            unpadded = {}
            for target, p in zip(rows.targets[index], rows.probs[index]):
                if p > 0.0:
                    unpadded[int(target)] = unpadded.get(int(target), 0.0) + p
            expected = {
                space.index_of(target): p for target, p in law.items()
            }
            assert unpadded.keys() == expected.keys()
            for target, p in expected.items():
                assert unpadded[target] == pytest.approx(p)

    def test_cumulative_rows_are_sampling_safe(self):
        import numpy as np

        from repro.core.transitions import transition_rows

        rows = transition_rows(ModelParameters(mu=0.3, d=0.9, k=7))
        assert np.all(np.diff(rows.cum_probs, axis=1) >= -1e-12)
        assert np.all(rows.cum_probs[:, -1] >= 1.0)
        assert np.all(rows.targets >= 0)
        assert np.all(rows.targets < rows.n_states)

    def test_closed_states_are_self_loops(self):
        from repro.core.statespace import Category
        from repro.core.transitions import CODE_POLLUTED, transition_rows

        params = ModelParameters(mu=0.2, d=0.8)
        rows = transition_rows(params)
        space = StateSpace(params)
        for state in space.safe_merge + space.safe_split + space.polluted_merge:
            index = space.index_of(state)
            assert rows.category_codes[index] > CODE_POLLUTED
            assert rows.targets[index, 0] == index
            assert rows.probs[index, 0] == 1.0

    def test_dense_matrix_matches_cluster_chain(self):
        import numpy as np

        from repro.core.matrix import ClusterChain
        from repro.core.transitions import transition_rows

        params = ModelParameters(mu=0.25, d=0.9, k=2)
        dense = transition_rows(params).dense_matrix()
        chain = ClusterChain(params)
        assert np.allclose(dense, chain.matrix)
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_state_index_round_trip(self):
        from repro.core.transitions import transition_rows

        params = ModelParameters(mu=0.1, d=0.5)
        rows = transition_rows(params)
        space = StateSpace(params)
        for index, state in enumerate(space.model_states):
            assert rows.index_of(state) == index
        with pytest.raises(StateSpaceError):
            rows.index_of(State(7, 7, 7))  # polluted split: not in matrix

    def test_arrays_are_read_only(self):
        from repro.core.transitions import transition_rows

        rows = transition_rows(ModelParameters(mu=0.1, d=0.5, k=2))
        with pytest.raises(ValueError):
            rows.probs[0, 0] = 0.5


class TestBoundedMemo:
    """One LRU of ``MEMO_SIZE`` parameter sets holds everything derived
    from them, and evicts a set whole."""

    @staticmethod
    def points(count, mu=0.011):
        return [
            ModelParameters(core_size=3, spare_max=3, mu=mu + 1e-6 * i, d=0.9)
            for i in range(count)
        ]

    @staticmethod
    def assert_equal_rows(first, second):
        import numpy as np

        for name in (
            "targets", "probs", "cum_probs", "category_codes", "state_index"
        ):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_keeps_the_most_recent_sets_and_evicts_the_oldest(self):
        from repro.core.cluster_model import cluster_model
        from repro.core.transitions import (
            MEMO_SIZE,
            _derivations,
            transition_rows,
        )

        points = self.points(MEMO_SIZE + 8)
        derived = [
            (transition_rows(params), cluster_model(params))
            for params in points[:MEMO_SIZE]
        ]
        # One model per parameter set, and the same one on every call.
        assert len({id(model) for _, model in derived}) == MEMO_SIZE
        assert all(
            cluster_model(params) is model
            for params, (_, model) in zip(points, derived)
        )
        transition_rows(points[0])  # now the most recent; points[1] the least
        for params in points[MEMO_SIZE:]:
            transition_rows(params)
        assert _derivations.cache_info().currsize == MEMO_SIZE
        # Residents answer from the memo (and so evict nothing): the
        # refreshed first set and every set after the 8 evicted ones.
        for index in (0, *range(9, MEMO_SIZE)):
            assert transition_rows(points[index]) is derived[index][0]
        # The 8 least recently used went, whole: rows and model rebuild.
        rows, model = derived[1]
        rebuilt = transition_rows(points[1])
        assert rebuilt is not rows
        assert cluster_model(points[1]) is not model
        self.assert_equal_rows(rebuilt, rows)
        assert _derivations.cache_info().currsize == MEMO_SIZE

    def test_evicted_variant_rows_rebuild_equal(self):
        from repro.core.policies import PASSIVE_POLICY
        from repro.core.transitions import (
            KIND_LEAVE,
            MEMO_SIZE,
            transition_rows,
        )

        first, *others = self.points(MEMO_SIZE + 1, mu=0.023)
        variant = {"policy": PASSIVE_POLICY, "kind": KIND_LEAVE}
        rows = transition_rows(first, **variant)
        for params in others:
            transition_rows(params)
        rebuilt = transition_rows(first, **variant)
        assert rebuilt is not rows
        self.assert_equal_rows(rebuilt, rows)

    def test_clear_drops_skip_tables_and_models(self):
        import numpy as np

        from repro.core.cluster_model import cluster_model
        from repro.core.transitions import clear_transition_caches
        from repro.simulation.batch import BatchClusterEngine

        params = ModelParameters(core_size=3, spare_max=3, mu=0.031, d=0.9)

        def skip_tables():
            engine = BatchClusterEngine(params, np.random.default_rng(1))
            return engine.skip_tables

        skip, model = skip_tables(), cluster_model(params)
        assert skip_tables() is skip and cluster_model(params) is model
        clear_transition_caches()
        assert skip_tables() is not skip
        assert cluster_model(params) is not model

    def test_threads_building_one_set_get_equal_rows(self):
        import sys
        import threading

        from repro.core.policies import PASSIVE_POLICY
        from repro.core.transitions import transition_rows

        params = ModelParameters(core_size=5, spare_max=5, mu=0.043, d=0.7)
        count = 4  # more threads than cores
        start = threading.Barrier(count)
        built = []

        def build():
            start.wait()
            built.append(transition_rows(params, policy=PASSIVE_POLICY))

        threads = [
            threading.Thread(target=build, daemon=True) for _ in range(count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == count
        for rows in built[1:]:
            self.assert_equal_rows(rows, built[0])
        memo = transition_rows(params, policy=PASSIVE_POLICY)
        assert any(rows is memo for rows in built)
