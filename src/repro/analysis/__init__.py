"""Experiment harness: figure reproductions, the section 5 studies, reporting."""

from repro.analysis.experiment import (
    StudyResult,
    answers_digest,
    build_store,
    build_tree,
    default_policies,
    run_cost_function_study,
    run_engine_matrix,
    run_policy_study,
    run_query_io_study,
    run_secondary_study,
    run_tsb_vs_wobt,
    run_txn_study,
    run_update_ratio_study,
)
from repro.analysis.figures import ALL_FIGURES, FigureResult, run_all_figures
from repro.analysis.metrics import ExperimentRow, QueryCost, space_row, summarize_rows
from repro.analysis.report import render_comparison, render_table, rows_to_dicts

__all__ = [
    "ALL_FIGURES",
    "ExperimentRow",
    "FigureResult",
    "QueryCost",
    "StudyResult",
    "answers_digest",
    "build_store",
    "build_tree",
    "default_policies",
    "render_comparison",
    "render_table",
    "rows_to_dicts",
    "run_all_figures",
    "run_cost_function_study",
    "run_engine_matrix",
    "run_policy_study",
    "run_query_io_study",
    "run_secondary_study",
    "run_tsb_vs_wobt",
    "run_txn_study",
    "run_update_ratio_study",
    "space_row",
    "summarize_rows",
]
