"""Evaluation harnesses regenerating the paper's tables and case study."""

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
from .validation import (
    ValidationCase,
    ValidationReport,
    ValidationResult,
    run_validation,
    validate_case,
)

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
    "ValidationCase",
    "ValidationReport",
    "ValidationResult",
    "run_validation",
    "validate_case",
]
