"""Integration: the paper's published numbers, reproduced end to end.

Every assertion here cites a specific artifact of the paper (table cell,
figure anchor, or stated invariant).  Two published cells are excluded
as typos: Table I at (mu = 10 %, d = 0.999) and Table II's
``E(T_P,2)`` at mu = 20 %.
"""

import pytest

from repro.core.cluster_model import ClusterModel
from repro.core.parameters import ModelParameters


def model(mu: float, d: float, k: int = 1) -> ClusterModel:
    return ClusterModel(ModelParameters(core_size=7, spare_max=7, k=k, mu=mu, d=d))


class TestFailureFreeInvariants:
    """Section VII-C, failure-free remarks."""

    def test_total_lifetime_is_floor_delta_sq_over_4(self):
        # "in a failure free environment (mu = 0), E(T_S) + E(T_P) =
        #  floor(Delta^2/4) = 12"
        for d in (0.0, 0.3, 0.9, 0.999):
            m = model(0.0, d)
            total = m.expected_time_safe() + m.expected_time_polluted()
            assert total == pytest.approx(12.0, abs=1e-9)

    def test_absorption_odds_57_43(self):
        # Section VII-E: p(merge) = 1 - 3/7 ~ 0.57, p(split) ~ 0.43.
        probabilities = model(0.0, 0.3).absorption_probabilities("delta")
        assert probabilities["safe-merge"] == pytest.approx(0.5714, abs=1e-4)
        assert probabilities["safe-split"] == pytest.approx(0.4286, abs=1e-4)


TABLE1_CELLS = [
    # (mu, d, paper E(T_S), paper E(T_P), tolerance)
    (0.10, 0.95, 12.09, 0.15, 0.05),
    (0.10, 0.99, 12.08, 2.6, 0.05),
    (0.20, 0.95, 11.88, 1.14, 0.05),
    (0.20, 0.99, 11.84, 699.7, 0.01),
    (0.20, 0.999, 11.83, 511_810_822.0, 0.01),
    (0.30, 0.95, 11.54, 5.96, 0.01),
    (0.30, 0.99, 11.48, 12_597.0, 0.01),
    (0.30, 0.999, 11.47, 9_299_884_149.0, 0.01),
]


class TestTableI:
    @pytest.mark.parametrize("mu,d,paper_s,paper_p,tol", TABLE1_CELLS)
    def test_cell(self, mu, d, paper_s, paper_p, tol):
        m = model(mu, d)
        assert m.expected_time_safe() == pytest.approx(paper_s, rel=0.005)
        assert m.expected_time_polluted() == pytest.approx(paper_p, rel=tol)

    def test_suspect_cell_blowup_factor(self):
        # The published cell (mu=10 %, d=0.999) reads 1518; the blow-up
        # factor between d=0.99 and d=0.999 in the 20 % and 30 % columns
        # is ~7e5, so the 10 % cell must be ~1.5e6, not 1.5e3.
        m99 = model(0.10, 0.99).expected_time_polluted()
        m999 = model(0.10, 0.999).expected_time_polluted()
        assert m999 / m99 > 1e5


TABLE2_ROWS = [
    # (mu, E(T_S,1), E(T_S,2), E(T_P,1), E(T_P,2) or None-for-typo)
    (0.0, 12.0, 0.0, 0.0, 0.0),
    (0.10, 12.085, 0.013, 0.099, 0.004),
    (0.20, 11.890, 0.033, 0.558, None),
    (0.30, 11.570, 0.043, 1.611, 0.075),
]


class TestTableII:
    @pytest.mark.parametrize("mu,s1,s2,p1,p2", TABLE2_ROWS)
    def test_row(self, mu, s1, s2, p1, p2):
        m = model(mu, 0.90)
        profile = m.sojourn_profile("delta", depth=2)
        assert profile.safe_sojourns[0] == pytest.approx(s1, abs=0.005)
        assert profile.safe_sojourns[1] == pytest.approx(s2, abs=0.002)
        assert profile.polluted_sojourns[0] == pytest.approx(p1, abs=0.005)
        if p2 is not None:
            assert profile.polluted_sojourns[1] == pytest.approx(p2, abs=0.002)

    def test_suspect_cell_is_dropped_zero(self):
        # Paper prints 0.26 at mu=20 %; the measured 0.0264 confirms a
        # dropped zero, fitting the row's monotone trend.
        profile = model(0.20, 0.90).sojourn_profile("delta", depth=2)
        assert profile.polluted_sojourns[1] == pytest.approx(0.026, abs=0.002)

    def test_no_alternation_reading(self):
        # "E(T_S) ~ E(T_S,1) and E(T_P) ~ E(T_P,1)".
        for mu in (0.10, 0.20, 0.30):
            m = model(mu, 0.90)
            profile = m.sojourn_profile("delta", depth=1)
            assert profile.safe_sojourns[0] == pytest.approx(
                profile.total_safe, rel=0.01
            )
            assert profile.polluted_sojourns[0] == pytest.approx(
                profile.total_polluted, rel=0.06
            )


class TestFigure3Lessons:
    def test_lesson2_protocol1_dominates_protocol7(self):
        # E(T_S^(1)) >= E(T_S^(C)) and E(T_P^(1)) <= E(T_P^(C)).
        for mu in (0.1, 0.2, 0.3):
            for d in (0.3, 0.8, 0.9):
                for initial in ("delta", "beta"):
                    one = model(mu, d, k=1)
                    seven = model(mu, d, k=7)
                    assert one.expected_time_safe(initial) >= (
                        seven.expected_time_safe(initial) - 1e-9
                    )
                    assert one.expected_time_polluted(initial) <= (
                        seven.expected_time_polluted(initial) + 1e-9
                    )

    def test_lesson1_beta_start_favors_adversary(self):
        m = model(0.2, 0.8)
        assert m.expected_time_polluted("beta") > m.expected_time_polluted(
            "delta"
        )

    def test_lesson3_polluted_time_grows_with_d(self):
        values = [
            model(0.2, d).expected_time_polluted() for d in (0.3, 0.8, 0.9)
        ]
        assert values[0] < values[1] < values[2]


class TestFigure4Anchors:
    def test_containment_below_8_percent(self):
        # "the probability for the cluster to merge in a polluted state
        #  is very small (strictly less than 8 %) even for mu = 30 %
        #  and d = 90 %" under delta.
        probabilities = model(0.30, 0.90).absorption_probabilities("delta")
        assert probabilities["polluted-merge"] < 0.08

    def test_beta_start_leaks_more(self):
        delta_p = model(0.30, 0.90).absorption_probabilities("delta")
        beta_p = model(0.30, 0.90).absorption_probabilities("beta")
        assert beta_p["polluted-merge"] > delta_p["polluted-merge"]

    def test_split_probability_rises_with_d_under_delta(self):
        values = [
            model(0.2, d).absorption_probabilities("delta")["safe-split"]
            for d in (0.0, 0.3, 0.8, 0.9)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
