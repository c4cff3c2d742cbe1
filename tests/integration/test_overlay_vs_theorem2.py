"""Integration: Theorem 2 vs the competing-clusters simulation.

The empirical fraction of safe/polluted clusters in a simulated
n-cluster overlay must track the analytic slowed-down matrix power.
"""

import numpy as np
import pytest

from repro.core.overlay_model import OverlayModel
from repro.core.parameters import ModelParameters
from repro.simulation.metrics import SeriesAccumulator
from repro.simulation.overlay_sim import CompetingClustersSimulation

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.9)
N_CLUSTERS = 60
N_EVENTS = 3000
RECORD = 300


@pytest.fixture(scope="module")
def analytic_series():
    overlay = OverlayModel(PARAMS, N_CLUSTERS)
    return overlay.proportion_series("delta", N_EVENTS, record_every=RECORD)


@pytest.fixture(scope="module")
def empirical_series():
    safe = SeriesAccumulator()
    polluted = SeriesAccumulator()
    for replication in range(30):
        rng = np.random.default_rng(1000 + replication)
        simulation = CompetingClustersSimulation(
            PARAMS, N_CLUSTERS, rng, initial="delta"
        )
        series = simulation.run(N_EVENTS, record_every=RECORD)
        safe.add(series.safe_fraction)
        polluted.add(series.polluted_fraction)
    return safe.mean(), polluted.mean()


class TestTheorem2:
    def test_safe_fraction_tracks_analytic(self, analytic_series, empirical_series):
        empirical_safe, _ = empirical_series
        gap = np.max(np.abs(empirical_safe - analytic_series.safe_fraction))
        assert gap < 0.04

    def test_polluted_fraction_tracks_analytic(
        self, analytic_series, empirical_series
    ):
        _, empirical_polluted = empirical_series
        gap = np.max(
            np.abs(empirical_polluted - analytic_series.polluted_fraction)
        )
        assert gap < 0.02

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_one_seeded_replication_per_engine(self, engine):
        """A single run of 100 clusters stays within 0.12 of the closed
        form on either engine."""
        n_clusters, n_events, record = 100, 5000, 500
        series = CompetingClustersSimulation(
            PARAMS, n_clusters, np.random.default_rng(99), engine=engine
        ).run(n_events, record_every=record)
        analytic = OverlayModel(PARAMS, n_clusters).proportion_series(
            "delta", n_events, record_every=record
        )
        gap = np.max(np.abs(series.safe_fraction - analytic.safe_fraction))
        assert gap < 0.12

    def test_both_decay_to_zero(self, analytic_series, empirical_series):
        empirical_safe, empirical_polluted = empirical_series
        assert analytic_series.safe_fraction[-1] < 0.6
        assert empirical_safe[-1] == pytest.approx(
            analytic_series.safe_fraction[-1], abs=0.05
        )
        assert empirical_polluted[-1] < 0.05
