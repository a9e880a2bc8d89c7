"""Experiment drivers that regenerate the paper's tables, figures and claims.

Sweeps that re-solve the partitioning as a parameter varies (CT, system,
partitioner) are design-space explorations: :mod:`repro.explore` runs them,
and :mod:`repro.experiments.frontier` reads the JPEG-DCT one.
"""

from . import paper_constants
from .case_study import CaseStudy, build_case_study
from .cross_workload import cross_workload_summary, format_cross_workload_table
from .figures import (
    Figure4Result,
    Figure5Result,
    Figure8Result,
    reproduce_figure4,
    reproduce_figure5,
    reproduce_figure8,
)
from .frontier import (
    FrontierReport,
    format_frontier_table,
    jpeg_dct_frontier,
    jpeg_dct_space,
    paper_design_point,
)
from .report import comparison_row, format_table, percentage, seconds_column
from .summary import (
    ClaimCheck,
    ReproductionReport,
    format_reproduction_report,
    reproduction_report,
)
from .table1 import Table1Result, breakeven_fdh_blocks, fdh_breakeven_workload, reproduce_table1
from .table2 import Table2Result, reconfiguration_sweep, reproduce_table2, xc6000_conjecture

__all__ = [
    "CaseStudy",
    "ClaimCheck",
    "ReproductionReport",
    "format_reproduction_report",
    "reproduction_report",
    "Figure4Result",
    "Figure5Result",
    "Figure8Result",
    "Table1Result",
    "Table2Result",
    "breakeven_fdh_blocks",
    "build_case_study",
    "comparison_row",
    "cross_workload_summary",
    "format_cross_workload_table",
    "fdh_breakeven_workload",
    "format_table",
    "FrontierReport",
    "format_frontier_table",
    "jpeg_dct_frontier",
    "jpeg_dct_space",
    "paper_design_point",
    "paper_constants",
    "percentage",
    "reconfiguration_sweep",
    "reproduce_figure4",
    "reproduce_figure5",
    "reproduce_figure8",
    "reproduce_table1",
    "reproduce_table2",
    "seconds_column",
    "xc6000_conjecture",
]
