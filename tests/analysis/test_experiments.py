"""Unit tests for the experiment grids."""

from repro.analysis.experiments import (
    D_GRID,
    MU_GRID,
    base_parameters,
    mu_percent,
)


class TestGrids:
    def test_mu_grid_is_percent_steps(self):
        assert [mu_percent(mu) for mu in MU_GRID] == [0, 5, 10, 15, 20, 25, 30]

    def test_d_grid_matches_paper(self):
        assert D_GRID == (0.0, 0.30, 0.80, 0.90)

    def test_base_parameters_defaults(self):
        params = base_parameters()
        assert (params.core_size, params.spare_max, params.k) == (7, 7, 1)

    def test_base_parameters_overrides(self):
        params = base_parameters(mu=0.2, k=7)
        assert params.mu == 0.2
        assert params.k == 7
