"""Experiment harness: compile pipeline, experiment drivers, reporting."""

from repro.harness.experiments import (
    CONFIGS, DYNAMIC_CONFIGS, DynamicMatrixRow, Figure8Row, Figure9Row, Lab,
    Table1Row, Table2Row, dynamic_matrix, figure8, figure9, geometric_mean,
    table1, table2,
)
from repro.harness.pipeline import (
    CompileConfig, CompiledProgram, SCALAR_CONFIG, annotate_predictions,
    compile_ir, compile_minic, make_input_image,
)
from repro.harness.report import (
    render_all, render_dynamic_matrix, render_figure8, render_figure9,
    render_table1, render_table2, write_experiments_md,
)
from repro.harness.resilience import (
    CampaignInterrupted, ChaosConfig, Journal, JournalError,
    SupervisionPolicy, graceful_signals,
)

__all__ = [
    "CONFIGS", "CampaignInterrupted", "ChaosConfig", "CompileConfig",
    "CompiledProgram", "DYNAMIC_CONFIGS", "DynamicMatrixRow", "Figure8Row",
    "Figure9Row", "Journal", "JournalError", "Lab", "SCALAR_CONFIG",
    "SupervisionPolicy", "Table1Row", "Table2Row", "annotate_predictions",
    "compile_ir", "compile_minic", "dynamic_matrix", "figure8", "figure9",
    "geometric_mean", "graceful_signals", "make_input_image", "render_all",
    "render_dynamic_matrix", "render_figure8", "render_figure9",
    "render_table1", "render_table2", "table1", "table2",
    "write_experiments_md",
]
