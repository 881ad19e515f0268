"""Offline analysis: breakdowns, transition counts and multi-process summaries.

This module turns raw traces into the quantities the paper reports:

* per-operation time breakdowns by stack category and resource class
  (Figures 4a/4b, 5, 7),
* language-transition counts per training iteration (Figures 4c/4d),
* per-worker CPU/GPU totals for multi-process workloads (Figure 8),
* corrected vs. uninstrumented totals for overhead-correction validation
  (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .calibration import CalibrationResult
from .columns import ColumnarTrace, groups_first_seen, trace_columns
from .correction import (
    corrected_category_breakdown,
    corrected_total_us,
    locate_operations,
    overhead_by_operation_category,
    trace_total_us,
)
from .events import CATEGORY_BACKEND, CATEGORY_CUDA_API, CATEGORY_SIMULATOR
from .overlap import RESOURCE_GPU, OverlapResult, compute_overlap

#: Transition categories reported in Figures 4c/4d.
TRANSITION_CATEGORIES = (CATEGORY_SIMULATOR, CATEGORY_BACKEND, CATEGORY_CUDA_API)


@dataclass
class WorkloadAnalysis:
    """Analysis of one profiled workload run."""

    trace: ColumnarTrace
    overlap: OverlapResult
    calibration: Optional[CalibrationResult] = None
    iterations: Optional[int] = None
    _overheads: Optional[Dict[Tuple[str, str], float]] = field(default=None, repr=False)

    # ----------------------------------------------------------- breakdowns
    def category_breakdown_us(self, *, corrected: bool = True) -> Dict[str, Dict[str, float]]:
        """operation -> category -> microseconds (corrected when calibration present)."""
        breakdown = self.overlap.category_breakdown()
        if corrected and self.calibration is not None:
            breakdown = corrected_category_breakdown(breakdown, self.overheads())
        return breakdown

    def category_breakdown_sec(self, *, corrected: bool = True) -> Dict[str, Dict[str, float]]:
        return {
            op: {cat: us / 1e6 for cat, us in cats.items()}
            for op, cats in self.category_breakdown_us(corrected=corrected).items()
        }

    def resource_breakdown_us(self) -> Dict[str, Dict[str, float]]:
        """operation -> resource class (CPU / GPU / CPU + GPU) -> microseconds."""
        return self.overlap.resource_breakdown()

    def overheads(self) -> Dict[Tuple[str, str], float]:
        if self.calibration is None:
            return {}
        if self._overheads is None:
            self._overheads = overhead_by_operation_category(self.trace, self.calibration)
        return self._overheads

    # ----------------------------------------------------------------- totals
    def total_time_us(self, *, corrected: bool = True) -> float:
        total = trace_total_us(self.trace)
        if corrected and self.calibration is not None:
            return corrected_total_us(self.trace, self.calibration, total_us=total)
        return total

    def total_time_sec(self, *, corrected: bool = True) -> float:
        return self.total_time_us(corrected=corrected) / 1e6

    def gpu_time_us(self) -> float:
        """Time during which the GPU was executing kernels or copies."""
        return self.overlap.gpu_time_us()

    def gpu_fraction(self) -> float:
        """Fraction of (uncorrected tracked) training time with the GPU active."""
        tracked = self.overlap.total_us(include_untracked=False)
        return self.gpu_time_us() / tracked if tracked > 0 else 0.0

    def operation_fraction(self, operation: str, *, corrected: bool = True) -> float:
        """Fraction of training time spent in ``operation``."""
        breakdown = self.category_breakdown_us(corrected=corrected)
        totals = {op: sum(cats.values()) for op, cats in breakdown.items()}
        grand_total = sum(totals.values())
        return totals.get(operation, 0.0) / grand_total if grand_total > 0 else 0.0

    # ------------------------------------------------------------ transitions
    def transition_counts(self) -> Dict[str, Dict[str, int]]:
        """operation -> transition category -> number of native calls.

        Operations appear in the order of their first transition event, and
        each operation's categories in the order of their first event there.
        """
        columns = trace_columns(self.trace)
        events = columns.events
        categories = [columns.id_of(category) for category in TRANSITION_CATEGORIES]
        selected = np.flatnonzero(np.isin(events.label, categories))
        operations = locate_operations(columns, events.worker[selected], events.start[selected])
        width = len(columns.strings)
        counts: Dict[str, Dict[str, int]] = {}
        for code, positions in groups_first_seen(operations * width + events.label[selected]):
            operation, category = divmod(code, width)
            counts.setdefault(columns.strings[operation], {})[columns.strings[category]] = len(positions)
        return counts

    def transitions_per_iteration(self, iterations: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """operation -> transition category -> transitions per training iteration."""
        iters = iterations if iterations is not None else self.iterations
        if not iters:
            raise ValueError("number of iterations required to normalise transition counts")
        return {
            op: {cat: count / iters for cat, count in cats.items()}
            for op, cats in self.transition_counts().items()
        }


def analyze(
    trace: ColumnarTrace,
    *,
    calibration: Optional[CalibrationResult] = None,
    iterations: Optional[int] = None,
) -> WorkloadAnalysis:
    """Compute the overlap regions for ``trace`` and wrap them for reporting."""
    overlap = compute_overlap(trace)
    return WorkloadAnalysis(trace=trace, overlap=overlap, calibration=calibration, iterations=iterations)


# --------------------------------------------------------------- multi-process
@dataclass(frozen=True)
class WorkerSummary:
    """Per-process summary used by the Minigo multi-process view (Figure 8)."""

    worker: str
    total_time_us: float
    cpu_time_us: float
    gpu_time_us: float

    @property
    def total_time_sec(self) -> float:
        return self.total_time_us / 1e6

    @property
    def gpu_time_sec(self) -> float:
        return self.gpu_time_us / 1e6


def summarize_worker_trace(worker: str, trace: ColumnarTrace) -> WorkerSummary:
    """One worker's Figure 8 summary: total span, CPU-bound time, GPU time."""
    overlap = compute_overlap(trace)
    total = trace_total_us(trace)
    gpu = overlap.gpu_time_us()
    gpu_only = overlap.resource_time_us(RESOURCE_GPU)
    cpu = max(total - gpu_only, 0.0)
    return WorkerSummary(worker=worker, total_time_us=total, cpu_time_us=cpu, gpu_time_us=gpu)


def multi_process_summary(traces: Mapping[str, ColumnarTrace]) -> List[WorkerSummary]:
    """Summarise each worker's trace: total span, CPU-bound time, GPU time."""
    summaries = [summarize_worker_trace(worker, trace) for worker, trace in traces.items()]
    return sorted(summaries, key=lambda s: s.worker)


def multi_process_summary_db(source) -> List[WorkerSummary]:
    """Per-worker summaries computed shard-parallel from a TraceDB store.

    ``source`` is a :class:`repro.tracedb.TraceDB` or a store directory.
    """
    from ..tracedb.mapreduce import parallel_worker_summaries
    summaries = parallel_worker_summaries(source)
    return sorted(summaries, key=lambda s: s.worker)


def analyze_db(
    source,
    *,
    calibration: Optional[CalibrationResult] = None,
    iterations: Optional[int] = None,
) -> WorkloadAnalysis:
    """Build a :class:`WorkloadAnalysis` from a TraceDB store handle.

    The store's chunks are decoded into column arrays once
    (:meth:`repro.tracedb.TraceDB.columnar_trace`), and the overlap sweep,
    the overhead correction, the transition counts and the totals all run
    on those arrays, as :func:`analyze` does on an in-memory trace: the
    result is byte-identical to :func:`analyze` of the same records, and
    its overlap to :func:`repro.tracedb.parallel_overlap`.
    """
    from ..tracedb.store import TraceDB
    db = source if isinstance(source, TraceDB) else TraceDB(str(source))
    trace = db.columnar_trace()
    return WorkloadAnalysis(trace=trace, overlap=compute_overlap(trace),
                            calibration=calibration, iterations=iterations)
