"""Experiment harness: one module per paper table/figure plus ablations."""

from repro.analysis.experiments import (
    D_GRID,
    FIGURE5_D_GRID,
    FIGURE5_EVENTS,
    FIGURE5_MU,
    FIGURE5_N_GRID,
    MU_GRID,
    TABLE1_D_GRID,
    TABLE1_MU_GRID,
    TABLE2_D,
    TABLE2_MU_GRID,
    base_parameters,
    mu_percent,
)
from repro.analysis.figure3 import (
    Figure3Cell,
    compute_figure3,
    render_figure3,
)
from repro.analysis.figure4 import (
    Figure4Cell,
    compute_figure4,
    render_figure4,
)
from repro.analysis.figure5 import (
    Figure5Curve,
    compute_figure5,
    render_figure5,
)
from repro.analysis.montecarlo import (
    EmpiricalTable2Row,
    empirical_proportion_series,
    empirical_sojourn_columns,
    empirical_table2,
    render_empirical_table2,
)
from repro.analysis.table1 import (
    PAPER_TABLE1,
    Table1Cell,
    compute_table1,
    max_relative_gap,
    render_table1,
)
from repro.analysis.table2 import (
    PAPER_TABLE2,
    Table2Row,
    alternation_is_negligible,
    compute_table2,
    render_table2,
)
from repro.analysis.tables import format_value, render_comparison, render_table

__all__ = [
    "base_parameters",
    "mu_percent",
    "MU_GRID",
    "D_GRID",
    "TABLE1_MU_GRID",
    "TABLE1_D_GRID",
    "TABLE2_MU_GRID",
    "TABLE2_D",
    "FIGURE5_N_GRID",
    "FIGURE5_D_GRID",
    "FIGURE5_EVENTS",
    "FIGURE5_MU",
    "Figure3Cell",
    "compute_figure3",
    "render_figure3",
    "Figure4Cell",
    "compute_figure4",
    "render_figure4",
    "Figure5Curve",
    "compute_figure5",
    "render_figure5",
    "EmpiricalTable2Row",
    "empirical_sojourn_columns",
    "empirical_table2",
    "render_empirical_table2",
    "empirical_proportion_series",
    "Table1Cell",
    "compute_table1",
    "render_table1",
    "max_relative_gap",
    "PAPER_TABLE1",
    "Table2Row",
    "compute_table2",
    "render_table2",
    "alternation_is_negligible",
    "PAPER_TABLE2",
    "render_table",
    "render_comparison",
    "format_value",
]
