"""Unit tests for the protocol variants (join placement policies)."""

import numpy as np
import pytest

from repro.core.absorption import cluster_fate
from repro.core.initial import delta_distribution
from repro.core.parameters import ModelParameters
from repro.core.statespace import Category, State
from repro.core.variants import (
    JoinPolicy,
    build_variant_chain,
    variant_transition_distribution,
)

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9)


class TestVariantTransitions:
    def test_spare_first_delegates_to_paper_tree(self):
        from repro.core.transitions import transition_distribution

        state = State(3, 1, 1)
        assert variant_transition_distribution(
            state, PARAMS, JoinPolicy.SPARE_FIRST
        ) == transition_distribution(state, PARAMS)

    def test_direct_core_rows_are_distributions(self):
        from repro.core.statespace import StateSpace

        space = StateSpace(PARAMS, include_polluted_split=True)
        for state in space.transient:
            law = variant_transition_distribution(
                state, PARAMS, JoinPolicy.DIRECT_CORE
            )
            assert sum(law.values()) == pytest.approx(1.0), tuple(state)

    def test_malicious_joiner_can_take_core_seat(self):
        # From a clean state, the malicious joiner enters the core with
        # probability p_j * mu * C/(C+s+1) displacing an honest member.
        law = variant_transition_distribution(
            State(3, 0, 0), PARAMS, JoinPolicy.DIRECT_CORE
        )
        expected = 0.5 * 0.2 * (7 / 11)
        assert law[State(4, 1, 0)] == pytest.approx(expected)

    def test_honest_joiner_can_displace_malicious(self):
        law = variant_transition_distribution(
            State(3, 7, 0), PARAMS, JoinPolicy.DIRECT_CORE
        )
        # Honest join accepted at... x=7 polluted and s=3>1: Rule 2
        # still filters honest joins, so only malicious mass moves.
        assert State(4, 6, 1) not in law

    def test_direct_core_can_reach_polluted_split(self):
        # Safe state at the split edge: a malicious joiner stealing a
        # core seat pushes x past the quorum while s reaches Delta.
        law = variant_transition_distribution(
            State(6, 2, 0), PARAMS, JoinPolicy.DIRECT_CORE
        )
        target = State(7, 3, 0)
        assert target in law
        space = build_variant_chain(PARAMS, JoinPolicy.DIRECT_CORE).space
        assert space.categorize(target) is Category.POLLUTED_SPLIT


class TestVariantChains:
    def test_direct_core_chain_is_stochastic(self):
        chain = build_variant_chain(PARAMS, JoinPolicy.DIRECT_CORE)
        assert np.allclose(chain.matrix.sum(axis=1), 1.0)

    def test_polluted_split_class_present(self):
        chain = build_variant_chain(PARAMS, JoinPolicy.DIRECT_CORE)
        assert Category.POLLUTED_SPLIT in chain.closed_categories
        assert chain.space.model_size == chain.space.full_space_size

    def test_paper_chain_unchanged(self):
        from repro.core.matrix import ClusterChain

        variant = build_variant_chain(PARAMS, JoinPolicy.SPARE_FIRST)
        direct = ClusterChain(PARAMS)
        assert np.allclose(variant.matrix, direct.matrix)

    def test_direct_core_is_strictly_worse(self):
        paper = build_variant_chain(PARAMS, JoinPolicy.SPARE_FIRST)
        naive = build_variant_chain(PARAMS, JoinPolicy.DIRECT_CORE)
        paper_fate = cluster_fate(paper, delta_distribution(paper))
        naive_fate = cluster_fate(naive, delta_distribution(naive))
        assert naive_fate.expected_time_polluted > (
            1.5 * paper_fate.expected_time_polluted
        )
        assert naive_fate.p_polluted_absorption > (
            paper_fate.p_polluted_absorption
        )

    def test_direct_core_polluted_split_probability_positive(self):
        naive = build_variant_chain(PARAMS, JoinPolicy.DIRECT_CORE)
        fate = cluster_fate(naive, delta_distribution(naive))
        assert fate.p_polluted_split > 0.0
        assert "p(polluted-split)" in fate.as_dict()

    def test_mu_zero_policies_agree(self):
        clean = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.0, d=0.9)
        paper = build_variant_chain(clean, JoinPolicy.SPARE_FIRST)
        naive = build_variant_chain(clean, JoinPolicy.DIRECT_CORE)
        paper_fate = cluster_fate(paper, delta_distribution(paper))
        naive_fate = cluster_fate(naive, delta_distribution(naive))
        # Without malicious peers the placement policy is irrelevant.
        assert naive_fate.expected_time_safe == pytest.approx(
            paper_fate.expected_time_safe
        )
        assert naive_fate.p_polluted_absorption == pytest.approx(0.0)


class TestAblationHelpers:
    def test_ablation_computes_and_dominates(self):
        from repro.analysis.ablations import (
            compute_join_policy_ablation,
            render_join_policy_ablation,
            spare_first_dominates,
        )

        points = compute_join_policy_ablation()
        assert len(points) == 6
        assert spare_first_dominates(points)
        naive = [p for p in points if p.policy == "direct-core"]
        paper = [p for p in points if p.policy == "spare-first"]
        assert [p.mu for p in paper] == [p.mu for p in naive]
        assert [p.mu for p in paper] == [0.1, 0.2, 0.3]
        # Not marginal: > 1.5x the polluted time at every mu.
        for n, p in zip(naive, paper):
            assert n.expected_polluted > 1.5 * p.expected_polluted
        text = render_join_policy_ablation(points)
        assert "direct-core" in text
