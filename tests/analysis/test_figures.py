"""Unit tests for the figure modules (reduced grids for speed)."""

import numpy as np
import pytest

from repro.analysis import figure3, figure4, figure5


class TestFigure3:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure3.compute_figure3(
            k_values=(1, 7),
            initials=("delta", "beta"),
            mu_grid=(0.0, 0.15, 0.30),
            d_grid=(0.0, 0.90),
        )

    def test_cell_count(self, cells):
        assert len(cells) == 2 * 2 * 3 * 2

    def test_shape_checks_pass_on_reduced_grid(self, cells):
        checks = figure3.shape_checks(cells)
        assert all(checks.values()), checks

    def test_render_contains_panels(self, cells):
        text = figure3.render_figure3(cells)
        assert "protocol_1" in text
        assert "protocol_7" in text
        assert "alpha=beta" in text

    def test_values_positive(self, cells):
        assert all(c.expected_safe > 0 for c in cells)
        assert all(c.expected_polluted >= 0 for c in cells)


class TestFigure4:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure4.compute_figure4(
            initials=("delta", "beta"),
            mu_grid=(0.0, 0.15, 0.30),
            d_grid=(0.0, 0.90),
        )

    def test_shape_checks_pass(self, cells):
        checks = figure4.shape_checks(cells)
        assert all(checks.values()), checks

    def test_probability_rows_normalize(self, cells):
        for cell in cells:
            total = cell.p_safe_merge + cell.p_safe_split + cell.p_polluted_merge
            assert total == pytest.approx(1.0)

    def test_render_mentions_probabilities(self, cells):
        text = figure4.render_figure4(cells)
        assert "p(polluted-merge)" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def curves(self):
        return figure5.compute_figure5(
            mu=0.25,
            n_grid=(50,),
            d_grid=(0.30, 0.90),
            n_events=5000,
            record_every=250,
        )

    def test_curve_shapes(self, curves):
        assert len(curves) == 2
        for curve in curves:
            assert curve.series.events[-1] == 5000
            assert curve.series.safe_fraction[0] == pytest.approx(1.0)

    def test_lifetime_labels_match_paper(self, curves):
        by_d = {curve.d: curve for curve in curves}
        assert by_d[0.30].lifetime == pytest.approx(6.58, abs=0.01)
        assert by_d[0.90].lifetime == pytest.approx(46.05, abs=0.01)

    def test_polluted_fraction_small(self, curves):
        for curve in curves:
            assert curve.series.peak_polluted_fraction < figure5.PAPER_POLLUTED_CEILING

    def test_render_contains_peaks(self, curves):
        text = figure5.render_figure5(curves)
        assert "peak" in text
        assert "n=50" in text

    def test_shape_checks_on_full_horizon(self):
        curves = figure5.compute_figure5(
            mu=0.25,
            n_grid=(50,),
            d_grid=(0.30, 0.90),
            n_events=20_000,
            record_every=1000,
        )
        checks = figure5.shape_checks(curves)
        assert all(checks.values()), checks
