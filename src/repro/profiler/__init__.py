"""RL-Scope: the cross-stack profiler (the paper's primary contribution).

Public surface:

* :class:`Profiler` / :class:`ProfilerConfig` — annotation API and
  transparent interception (Sections 3.1, 3.2).
* :func:`compute_overlap` / :class:`OverlapResult` — cross-stack event
  overlap (Section 3.3).
* :func:`calibrate` / :class:`CalibrationResult` and the correction helpers —
  profiling calibration and overhead correction (Section 3.4, Appendix C).
* :func:`analyze` / :class:`WorkloadAnalysis` — offline analysis producing
  the breakdowns, transition counts and multi-process summaries reported in
  the paper's figures.

A :class:`Profiler` writes every record as a field row into one per-worker
sink (:class:`~repro.tracedb.ShardWriter`).  Without a ``trace_dir``
:meth:`Profiler.finalize` returns the trace as a
:class:`~repro.profiler.columns.ColumnarTrace`, columns plus metadata, which
:func:`analyze` reads; with one, the sink writes a :mod:`repro.tracedb`
store (at finalize, or streamed during the run), and
:class:`~repro.tracedb.TraceDB` reads it back as the same columns for
:func:`analyze_db` and the shard-parallel analysis.
"""

from .analysis import (
    TRANSITION_CATEGORIES,
    WorkerSummary,
    WorkloadAnalysis,
    analyze,
    analyze_db,
    multi_process_summary,
    multi_process_summary_db,
    summarize_worker_trace,
)
from .api import Profiler, ProfilerConfig
from .calibration import (
    CalibrationResult,
    CalibrationRun,
    calibrate,
    delta_calibrate,
    difference_of_average_calibrate,
)
from .correction import (
    corrected_category_breakdown,
    corrected_total_us,
    overhead_by_operation_category,
)
from .events import (
    CATEGORY_BACKEND,
    CATEGORY_CUDA_API,
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CATEGORY_PYTHON,
    CATEGORY_SIMULATOR,
    CPU_CATEGORIES,
    Event,
    OverheadMarker,
)
from .overlap import (
    RESOURCE_CPU,
    RESOURCE_CPU_GPU,
    RESOURCE_GPU,
    UNTRACKED,
    OverlapResult,
    compute_overlap,
)
from . import report

__all__ = [
    "TRANSITION_CATEGORIES",
    "WorkerSummary",
    "WorkloadAnalysis",
    "analyze",
    "analyze_db",
    "multi_process_summary",
    "multi_process_summary_db",
    "summarize_worker_trace",
    "Profiler",
    "ProfilerConfig",
    "CalibrationResult",
    "CalibrationRun",
    "calibrate",
    "delta_calibrate",
    "difference_of_average_calibrate",
    "corrected_category_breakdown",
    "corrected_total_us",
    "overhead_by_operation_category",
    "CATEGORY_BACKEND",
    "CATEGORY_CUDA_API",
    "CATEGORY_GPU",
    "CATEGORY_OPERATION",
    "CATEGORY_PYTHON",
    "CATEGORY_SIMULATOR",
    "CPU_CATEGORIES",
    "Event",
    "OverheadMarker",
    "RESOURCE_CPU",
    "RESOURCE_CPU_GPU",
    "RESOURCE_GPU",
    "UNTRACKED",
    "OverlapResult",
    "compute_overlap",
    "report",
]
