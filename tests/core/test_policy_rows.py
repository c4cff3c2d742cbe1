"""Policy-conditional transition laws: derivation vs the scalar oracle.

Three layers of cross-checks pin the variant-aware rows:

* algebraic -- the strong policy's mixed law must equal the paper's
  law (the same tree with ``p_join``/``p_leave`` threaded through it)
  up to rounding, and every kind-conditional pair must mix back into
  the unconditional law;
* stochastic -- the policy laws must be probability distributions over
  the model space for every registered policy and kind;
* operational -- one-event empirical frequencies of the scalar
  member-list simulator must match the derived law, policy by policy
  (the transition derivation and the oracle share no code path beyond
  the maintenance kernel, so agreement here is a real equivalence).
"""

import numpy as np
import pytest

from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.policies import (
    COUNT_POLICIES,
    GREEDY_LEAVE_POLICY,
    PASSIVE_POLICY,
    STRONG_POLICY,
    resolve_count_policy,
)
from repro.core.statespace import Category, State, StateSpace
from repro.core.transitions import (
    CODE_POLLUTED_SPLIT,
    KIND_JOIN,
    KIND_LEAVE,
    policy_transition_distribution,
    transition_distribution,
    transition_rows,
)
from repro.core.variants import build_policy_chain
from repro.simulation.cluster_sim import ClusterSimulator

ATTACK = ModelParameters(core_size=7, spare_max=7, k=3, mu=0.25, d=0.8)

POLICIES = (STRONG_POLICY, PASSIVE_POLICY, GREEDY_LEAVE_POLICY)


class TestPolicyLawAlgebra:
    def test_strong_mixed_law_equals_legacy(self):
        """The paper's law, the tree at the strong switches with the
        event-kind weights threaded through it, equals the strong
        policy's kind laws mixed as ``p * join + (1 - p) * leave``, up
        to rounding."""
        space = StateSpace(ATTACK, include_polluted_split=True)
        for state in space.transient:
            legacy = transition_distribution(state, ATTACK)
            derived = policy_transition_distribution(
                state, ATTACK, STRONG_POLICY
            )
            assert set(legacy) == set(derived), state
            for target, probability in legacy.items():
                assert derived[target] == pytest.approx(
                    probability, abs=1e-12
                ), (state, target)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_kind_laws_are_distributions(self, policy):
        space = StateSpace(ATTACK, include_polluted_split=True)
        for state in space.transient:
            for kind in (KIND_JOIN, KIND_LEAVE):
                law = policy_transition_distribution(
                    state, ATTACK, policy, kind=kind
                )
                assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
                for target in law:
                    assert space.contains(target), (state, target)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_kinds_mix_back_into_unconditional_law(self, policy):
        space = StateSpace(ATTACK, include_polluted_split=True)
        p = 0.37
        for state in space.transient[::5]:
            join = policy_transition_distribution(
                state, ATTACK, policy, kind=KIND_JOIN
            )
            leave = policy_transition_distribution(
                state, ATTACK, policy, kind=KIND_LEAVE
            )
            mixed = policy_transition_distribution(
                state, ATTACK, policy, p_join=p
            )
            recombined: dict = {}
            for target, probability in join.items():
                recombined[target] = (
                    recombined.get(target, 0.0) + p * probability
                )
            for target, probability in leave.items():
                recombined[target] = (
                    recombined.get(target, 0.0) + (1.0 - p) * probability
                )
            assert set(mixed) == set(recombined), state
            for target, probability in mixed.items():
                assert probability == pytest.approx(
                    recombined[target], abs=1e-12
                )

    @pytest.mark.parametrize(
        "policy", (STRONG_POLICY, GREEDY_LEAVE_POLICY), ids=lambda p: p.name
    )
    def test_no_voluntary_leave_at_one_spare(self, policy):
        """At ``s = 1`` a voluntary core leave would merge the cluster,
        so the adversary never orders one: with identifiers that never
        expire, only the honest core departures leave the state."""
        params = ATTACK.with_overrides(d=1.0)
        state = State(1, 1, 1)
        law = policy_transition_distribution(
            state, params, policy, kind=KIND_LEAVE
        )
        p_core = params.p_core(1)
        expected = (1.0 - p_core) + p_core / params.core_size
        assert law[state] == pytest.approx(expected, abs=1e-12)

    def test_closed_state_rejected(self):
        from repro.core.statespace import StateSpaceError

        with pytest.raises(StateSpaceError):
            policy_transition_distribution(
                State(0, 0, 0), ATTACK, STRONG_POLICY
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            policy_transition_distribution(
                State(3, 0, 0), ATTACK, STRONG_POLICY, kind="merge"
            )


class TestVariantRows:
    def test_legacy_rows_unchanged_by_default(self):
        rows = transition_rows(ATTACK)
        assert rows.policy is None
        assert rows.n_states == StateSpace(ATTACK).model_size

    def test_variant_rows_include_polluted_split(self):
        rows = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        space = StateSpace(ATTACK, include_polluted_split=True)
        assert rows.n_states == space.model_size
        assert CODE_POLLUTED_SPLIT in set(
            rows.category_codes.tolist()
        )

    def test_variant_rows_are_row_stochastic(self):
        for policy in POLICIES:
            rows = transition_rows(ATTACK, policy=policy)
            sums = rows.probs.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9), policy.name

    def test_variant_rows_cached_per_key(self):
        first = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        second = transition_rows(ATTACK, policy=PASSIVE_POLICY)
        assert first is second
        assert first is not transition_rows(ATTACK)

    def test_polluted_split_reachable_without_rule2(self):
        """A polluted cluster at s = Delta - 1 accepts joins when the
        policy drops Rule 2, so the polluted-split class carries mass."""
        state = State(ATTACK.spare_max - 1, 6, 2)
        law = policy_transition_distribution(state, ATTACK, PASSIVE_POLICY)
        split_mass = sum(
            probability
            for target, probability in law.items()
            if target.s == ATTACK.spare_max
        )
        assert split_mass > 0.0
        strong_law = policy_transition_distribution(
            state, ATTACK, STRONG_POLICY
        )
        assert all(
            target.s < ATTACK.spare_max for target in strong_law
        )


class TestPolicyChains:
    def test_strong_chain_is_the_paper_chain(self):
        chain = build_policy_chain(ATTACK, STRONG_POLICY)
        reference = ClusterChain(ATTACK)
        assert np.array_equal(chain.matrix, reference.matrix)

    @pytest.mark.parametrize("p_join", (None, 0.45))
    @pytest.mark.parametrize("name", sorted(COUNT_POLICIES))
    def test_policy_chain_scatters_the_sampled_table(self, name, p_join):
        """The analytic chain of a policy is the table the batch tier
        samples, scattered: the paper's rows at the paper's point, the
        policy's memoized rows everywhere else."""
        policy = COUNT_POLICIES[name]
        if policy is STRONG_POLICY and p_join is None:
            rows = transition_rows(ATTACK)
        else:
            rows = transition_rows(ATTACK, policy=policy, p_join=p_join)
        chain = build_policy_chain(ATTACK, policy, p_join=p_join)
        assert chain.matrix.tobytes() == rows.dense_matrix().tobytes()

    @pytest.mark.parametrize(
        "options",
        (
            {},
            {"policy": STRONG_POLICY},
            {"policy": PASSIVE_POLICY, "p_join": 0.45},
            {"policy": GREEDY_LEAVE_POLICY, "kind": KIND_LEAVE},
        ),
        ids=("paper", "strong", "passive-0.45", "greedy-leave-leave"),
    )
    def test_chain_scatters_its_table(self, options):
        rows = transition_rows(ATTACK, **options)
        chain = ClusterChain(ATTACK, rows)
        assert chain.matrix.tobytes() == rows.dense_matrix().tobytes()
        has_polluted_split = CODE_POLLUTED_SPLIT in rows.category_codes
        assert (
            Category.POLLUTED_SPLIT in chain.closed_categories
        ) == has_polluted_split
        assert has_polluted_split == bool(options)

    def test_chain_rejects_another_sets_table(self):
        other = ATTACK.with_overrides(mu=0.1)
        with pytest.raises(ValueError, match="another parameter set"):
            ClusterChain(ATTACK, transition_rows(other))

    @pytest.mark.parametrize(
        "policy", (PASSIVE_POLICY, GREEDY_LEAVE_POLICY), ids=lambda p: p.name
    )
    def test_variant_chain_is_stochastic(self, policy):
        chain = build_policy_chain(ATTACK, policy)
        assert np.allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-9)


class TestResolver:
    def test_resolves_names_and_none(self):
        assert resolve_count_policy(None) is STRONG_POLICY
        assert resolve_count_policy("passive") is PASSIVE_POLICY
        assert resolve_count_policy(PASSIVE_POLICY) is PASSIVE_POLICY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown count-level"):
            resolve_count_policy("martian")


class TestOperationalEquivalence:
    """Scalar one-event frequencies must match the derived kind laws."""

    TRIALS = 4000

    def _members(self, state: State):
        core = [True] * state.x + [False] * (
            ATTACK.core_size - state.x
        )
        spare = [True] * state.y + [False] * (state.s - state.y)
        return core, spare

    @pytest.mark.parametrize(
        "policy", COUNT_POLICIES.values(), ids=lambda p: p.name
    )
    @pytest.mark.parametrize(
        "state", [State(3, 2, 1), State(6, 6, 3)], ids=str
    )
    def test_one_event_frequencies(self, policy, state):
        simulator = ClusterSimulator(
            ATTACK, np.random.default_rng(99), adversary=policy
        )
        for kind, handler in (
            (KIND_JOIN, simulator._join_event),
            (KIND_LEAVE, simulator._leave_event),
        ):
            law = policy_transition_distribution(
                state, ATTACK, policy, kind=kind
            )
            observed: dict = {}
            for _ in range(self.TRIALS):
                core, spare = self._members(state)
                handler(core, spare)
                landed = State(len(spare), sum(core), sum(spare))
                observed[landed] = observed.get(landed, 0) + 1
            assert set(observed) <= set(law), (
                policy.name,
                kind,
                set(observed) - set(law),
            )
            for target, probability in law.items():
                frequency = observed.get(target, 0) / self.TRIALS
                assert frequency == pytest.approx(
                    probability, abs=0.035
                ), (policy.name, kind, target)
