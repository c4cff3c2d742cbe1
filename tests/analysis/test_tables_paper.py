"""Unit tests for the Table I / Table II experiment modules."""

import pytest

from repro.analysis import table1, table2


class TestTable1:
    @pytest.fixture(scope="class")
    def cells(self):
        return table1.compute_table1()

    def test_grid_dimensions(self, cells):
        assert len(cells) == 4 * 3

    def test_published_cells_match_closely(self, cells):
        assert table1.max_relative_gap(cells) < 0.01

    def test_suspect_cell_annotated(self, cells):
        suspect = next(c for c in cells if c.mu == 0.10 and c.d == 0.999)
        assert suspect.paper_polluted is None
        assert suspect.expected_polluted > 1e5

    def test_render_flags_suspect(self, cells):
        text = table1.render_table1(cells)
        assert "suspect" in text
        assert "mu=30%" in text

    def test_blowup_monotone_in_d(self, cells):
        for mu in (0.10, 0.20, 0.30):
            row = sorted(
                (c for c in cells if c.mu == mu), key=lambda c: c.d
            )
            values = [c.expected_polluted for c in row]
            assert values[0] < values[1] < values[2]

    def test_blowup_spans_four_orders_of_magnitude(self, cells):
        by_cell = {(c.mu, c.d): c.expected_polluted for c in cells}
        for mu in (0.10, 0.20, 0.30):
            assert by_cell[(mu, 0.999)] > 1e4 * by_cell[(mu, 0.95)]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2.compute_table2()

    def test_row_count(self, rows):
        assert len(rows) == 4

    def test_alternation_negligible(self, rows):
        assert table2.alternation_is_negligible(rows)

    def test_matches_paper_within_rounding(self, rows):
        published = table2.PAPER_TABLE2
        for row in rows:
            paper = published[row.mu]
            assert row.safe_first == pytest.approx(paper[0], abs=0.005)
            assert row.safe_second == pytest.approx(paper[1], abs=0.002)
            assert row.polluted_first == pytest.approx(paper[2], abs=0.005)
            if paper[3] is not None:
                assert row.polluted_second == pytest.approx(paper[3], abs=0.002)

    def test_render_shows_suspect_annotation(self, rows):
        text = table2.render_table2(rows)
        assert "suspect" in text
