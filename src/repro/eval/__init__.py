"""Evaluation harnesses regenerating the paper's tables and case study.

The cross-validation matrix lives in :mod:`repro.eval.validation` and is
not re-exported here: ``python -m repro.eval.validation`` would otherwise
import that module twice, once as a package member and once as ``__main__``.
"""

from .casestudy import CaseStudy, run_case_study
from .metrics import (
    AlgorithmRun,
    geometric_mean,
    improvement,
    run_ltb,
    run_ours,
    storage_blocks,
)
from .paper_data import (
    PAPER_AVERAGE_IMPROVEMENT,
    PAPER_CASESTUDY_SWEEP,
    PAPER_LOG_BANKS,
    PAPER_MOTIVATION,
    PAPER_TABLE1,
    RESOLUTION_ORDER,
    PaperRow,
)
from .report import render_case_study, render_table1
from .table1 import Table1, Table1Row, build_row, build_table

__all__ = [
    "CaseStudy",
    "run_case_study",
    "AlgorithmRun",
    "geometric_mean",
    "improvement",
    "run_ltb",
    "run_ours",
    "storage_blocks",
    "PAPER_AVERAGE_IMPROVEMENT",
    "PAPER_CASESTUDY_SWEEP",
    "PAPER_LOG_BANKS",
    "PAPER_MOTIVATION",
    "PAPER_TABLE1",
    "RESOLUTION_ORDER",
    "PaperRow",
    "render_case_study",
    "render_table1",
    "Table1",
    "Table1Row",
    "build_row",
    "build_table",
]
