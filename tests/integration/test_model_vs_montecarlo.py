"""Integration: closed-form results vs independent agent-level Monte Carlo.

The simulator re-enacts the operational semantics (it never touches the
transition matrix), so agreement here validates the Figure-2 derivation
end to end.
"""

import numpy as np
import pytest

from repro.core.cluster_model import ClusterModel
from repro.core.parameters import ModelParameters
from repro.simulation.cluster_sim import monte_carlo_summary

RUNS = 3000


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20110627)


@pytest.mark.parametrize(
    "mu,d,k",
    [
        (0.2, 0.8, 1),
        (0.2, 0.8, 7),
        (0.3, 0.5, 1),
        (0.1, 0.9, 3),
        (0.25, 0.8, 1),
    ],
)
class TestDeltaStart:
    def test_times_and_absorption_match(self, mu, d, k, rng):
        params = ModelParameters(core_size=7, spare_max=7, k=k, mu=mu, d=d)
        analytic = ClusterModel(params).cluster_fate("delta")
        measured = monte_carlo_summary(
            params, rng, runs=RUNS, initial="delta", max_steps=2_000_000
        )
        assert measured.mean_time_safe == pytest.approx(
            analytic.expected_time_safe, rel=0.05
        )
        # Polluted time is small here; use a combined tolerance.
        assert measured.mean_time_polluted == pytest.approx(
            analytic.expected_time_polluted, rel=0.25, abs=0.05
        )
        assert measured.p_safe_merge == pytest.approx(
            analytic.p_safe_merge, abs=0.03
        )
        assert measured.p_safe_split == pytest.approx(
            analytic.p_safe_split, abs=0.03
        )
        assert measured.p_polluted_merge == pytest.approx(
            analytic.p_polluted_merge, abs=0.02
        )


class TestBetaStart:
    def test_contaminated_start_matches(self, rng):
        params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.5)
        analytic = ClusterModel(params).cluster_fate("beta")
        measured = monte_carlo_summary(
            params, rng, runs=RUNS, initial="beta", max_steps=2_000_000
        )
        assert measured.mean_time_safe == pytest.approx(
            analytic.expected_time_safe, rel=0.05
        )
        assert measured.p_polluted_merge == pytest.approx(
            analytic.p_polluted_merge, abs=0.03
        )


class TestSojournAgreement:
    def test_first_sojourns_match(self, rng):
        params = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.3, d=0.8)
        model = ClusterModel(params)
        profile = model.sojourn_profile("delta", depth=1)
        measured = monte_carlo_summary(
            params, rng, runs=RUNS, initial="delta", max_steps=2_000_000
        )
        assert measured.mean_first_safe_sojourn == pytest.approx(
            profile.safe_sojourns[0], rel=0.05
        )
        assert measured.mean_first_polluted_sojourn == pytest.approx(
            profile.polluted_sojourns[0], rel=0.25, abs=0.05
        )
