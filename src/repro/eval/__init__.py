"""Evaluation harness: sweeps, category aggregation, DSE and reporting.

This package regenerates the paper's evaluation artifacts — see the
experiment index in DESIGN.md Section 3 and the per-artifact benchmark
modules under ``benchmarks/``.
"""

from repro.eval.categories import (
    CategorizedResult,
    CategoryRow,
    aggregate_ratio,
    categorize,
)
from repro.eval.dse import DSE_KERNELS, DseResult, run_dse
from repro.eval.harness import (
    SPMV_FORMATS,
    SweepRecord,
    geomean,
    sweep_spma,
    sweep_spmm,
    sweep_spmv,
)
from repro.eval.runner import (
    ResultCache,
    RunnerConfig,
    SweepResult,
    UnitFailure,
    code_version,
    run_units,
)
from repro.eval.supervisor import UnitOutcome, run_supervised
from repro.eval.recordings import RecordingStore, recording_key
from repro.eval.units import (
    UNIT_KINDS,
    WorkUnit,
    compute_unit,
    replay_units,
    spma_units,
    spmm_units,
    spmv_units,
    unit_cache_key,
)
from repro.eval.reporting import (
    render_categories,
    render_dict,
    render_dse,
    render_ratio_line,
    render_table,
)

__all__ = [
    "CategorizedResult",
    "CategoryRow",
    "aggregate_ratio",
    "categorize",
    "DSE_KERNELS",
    "DseResult",
    "run_dse",
    "SPMV_FORMATS",
    "SweepRecord",
    "geomean",
    "sweep_spma",
    "sweep_spmm",
    "sweep_spmv",
    "render_categories",
    "render_dict",
    "render_dse",
    "render_ratio_line",
    "render_table",
    "ResultCache",
    "RunnerConfig",
    "SweepResult",
    "UnitFailure",
    "UnitOutcome",
    "code_version",
    "run_units",
    "run_supervised",
    "RecordingStore",
    "recording_key",
    "UNIT_KINDS",
    "WorkUnit",
    "compute_unit",
    "replay_units",
    "spma_units",
    "spmm_units",
    "spmv_units",
    "unit_cache_key",
]
