"""Unit tests for the ablation studies."""

import pytest

from repro.analysis import ablations


class TestKSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return ablations.compute_k_sweep(mu=0.20, d=0.90)

    def test_full_range(self, points):
        assert [p.k for p in points] == [1, 2, 3, 4, 5, 6, 7]

    def test_lesson_k1_dominates(self, points):
        assert ablations.k1_dominates(points)

    def test_k1_minimizes_polluted_merge_too(self, points):
        first = points[0]
        assert all(
            first.p_polluted_merge <= p.p_polluted_merge + 1e-9
            for p in points
        )

    def test_k1_keeps_at_least_the_safe_time_of_k_c(self, points):
        assert points[0].expected_safe >= points[-1].expected_safe - 1e-9

    def test_render(self, points):
        text = ablations.render_k_sweep(points, mu=0.20, d=0.90)
        assert "E(T_P)" in text
        assert text.count("\n") >= 8


class TestNuSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return ablations.compute_nu_sweep(k=7, mu=0.20, d=0.90)

    def test_values_finite_and_positive(self, points):
        assert all(p.expected_polluted > 0 for p in points)

    def test_render(self, points):
        text = ablations.render_nu_sweep(points, k=7, mu=0.20, d=0.90)
        assert "nu" in text


class TestAdversaryComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return ablations.compare_adversaries(
            mu=0.20, d=0.90, n_peers=180, duration=200.0, events_per_unit=2
        )

    def test_three_strategies(self, results):
        assert [r.name for r in results] == [
            "strong (Rules 1+2)",
            "passive",
            "greedy-leave",
        ]

    def test_strong_discards_joins_passive_does_not(self, results):
        strong, passive, greedy = results
        assert passive.joins_discarded == 0
        assert passive.leaves_suppressed == 0

    def test_strong_at_least_as_effective_as_passive(self, results):
        strong, passive, _ = results
        assert strong.peak_polluted_fraction >= passive.peak_polluted_fraction

    def test_render(self, results):
        text = ablations.render_adversary_comparison(results)
        assert "greedy-leave" in text
