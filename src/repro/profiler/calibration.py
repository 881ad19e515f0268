"""Profiling-overhead calibration (Appendix C.1 / C.2 of the paper).

Two calibration strategies are reproduced:

* **Delta calibration** — for book-keeping whose cost does not depend on
  where it happens (Python <-> C interception, CUDA API interception,
  operation annotations): run the workload with the book-keeping disabled and
  enabled; the average cost is the increase in total runtime divided by the
  number of times the book-keeping ran.
* **Difference-of-average calibration** — for the closed-source CUPTI
  inflation, which differs per CUDA API and cannot be toggled per API: the
  average duration of each API call is measured with and without CUPTI
  enabled, and the difference is that API's inflation.

The calibration driver is given a *workload runner*: a callable that executes
the same (seeded, deterministic) workload under a supplied
:class:`~repro.profiler.api.ProfilerConfig` and reports total runtime plus the
collected trace.  Calibration results can be reused across future profiling
runs of the same workload, as in the paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .api import ProfilerConfig
from .columns import ColumnarTrace, TraceColumns, groups_first_seen, sequential_sum, trace_columns
from .events import (
    CATEGORY_CUDA_API,
    OVERHEAD_ANNOTATION,
    OVERHEAD_CUDA_INTERCEPTION,
    OVERHEAD_CUPTI,
    OVERHEAD_PYPROF,
    EventTrace,
    OverheadMarker,
)


@dataclass
class CalibrationRun:
    """Outcome of one workload execution under a particular profiler config."""

    total_time_us: float
    trace: Optional[EventTrace] = None


#: A workload runner: executes the workload under ``config`` and reports the outcome.
WorkloadRunner = Callable[[ProfilerConfig], CalibrationRun]


@dataclass
class CalibrationResult:
    """Average book-keeping durations recovered by calibration."""

    pyprof_us: float = 0.0
    annotation_us: float = 0.0
    cuda_interception_us: float = 0.0
    cupti_per_api_us: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)

    def overhead_for_marker(self, marker: OverheadMarker) -> float:
        """Estimated duration of the book-keeping behind one overhead marker."""
        return self.overhead_for(marker.kind, marker.api_name)

    def overhead_for(self, kind: str, api_name: Optional[str] = None) -> float:
        """Estimated duration of one ``kind`` book-keeping (CUPTI: of ``api_name``)."""
        if kind == OVERHEAD_PYPROF:
            return self.pyprof_us
        if kind == OVERHEAD_ANNOTATION:
            return self.annotation_us
        if kind == OVERHEAD_CUDA_INTERCEPTION:
            return self.cuda_interception_us
        if kind == OVERHEAD_CUPTI:
            if api_name is not None and api_name in self.cupti_per_api_us:
                return self.cupti_per_api_us[api_name]
            return self.details.get("cupti_default_us", 0.0)
        raise ValueError(f"unknown overhead marker kind: {kind!r}")

    def marker_overheads_us(self, trace: Union[EventTrace, ColumnarTrace, TraceColumns]) -> np.ndarray:
        """:meth:`overhead_for_marker` of every marker of ``trace``, in marker order.

        Evaluated once per distinct ``(kind, api_name)``, in first-occurrence
        order, so an unknown kind raises for the first marker that has it.
        """
        columns = trace_columns(trace)
        markers = columns.markers
        # api ids run from NO_ID (-1), hence the +1.
        pairs = markers.kind * (len(columns.strings) + 1) + (markers.api + 1)
        groups = groups_first_seen(pairs)
        values = np.empty(pairs.size, dtype=np.float64)
        for code, positions in groups:
            kind, api = divmod(code, len(columns.strings) + 1)
            values[positions] = self.overhead_for(
                columns.strings[kind], None if api == 0 else columns.strings[api - 1])
        return values

    def total_overhead_us(self, trace: Union[EventTrace, ColumnarTrace]) -> float:
        """Total estimated book-keeping time contained in ``trace``."""
        # The builtin sum over the values in marker order: the same sum, float
        # for float, as summing overhead_for_marker over the markers.
        return sum(self.marker_overheads_us(trace).tolist())

    def overhead_by_kind_us(self, trace: Union[EventTrace, ColumnarTrace]) -> Dict[str, float]:
        columns = trace_columns(trace)
        values = self.marker_overheads_us(columns)
        return {columns.strings[kind]: sequential_sum(values[positions])
                for kind, positions in groups_first_seen(columns.markers.kind)}

    @classmethod
    def from_ground_truth(cls, cost_model_config) -> "CalibrationResult":
        """Build a result from the cost model's true overheads (used in tests)."""
        profiling = cost_model_config.profiling
        return cls(
            pyprof_us=profiling.pyprof_interception_us,
            annotation_us=profiling.annotation_us,
            cuda_interception_us=profiling.cuda_interception_us,
            cupti_per_api_us=dict(profiling.cupti_inflation_us),
            details={"cupti_default_us": 0.5},
        )


def _marker_count(trace: Optional[EventTrace], kind: str) -> int:
    if trace is None:
        return 0
    return sum(1 for marker in trace.markers if marker.kind == kind)


def _mean_api_durations(trace: Optional[EventTrace]) -> Dict[str, float]:
    """Average CPU duration of each CUDA API call in the trace."""
    if trace is None:
        return {}
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for event in trace.events:
        if event.category != CATEGORY_CUDA_API:
            continue
        totals[event.name] += event.duration_us
        counts[event.name] += 1
    return {name: totals[name] / counts[name] for name in totals}


def delta_calibrate(
    run_fn: WorkloadRunner,
    *,
    flag: str,
    marker_kind: str,
    baseline_total_us: float,
) -> tuple[float, Dict[str, float]]:
    """Delta calibration for one book-keeping type (Figure 9 of the paper)."""
    run = run_fn(ProfilerConfig.only(**{flag: True}))
    count = _marker_count(run.trace, marker_kind)
    delta = run.total_time_us - baseline_total_us
    mean = delta / count if count > 0 else 0.0
    details = {
        f"{marker_kind}_count": float(count),
        f"{marker_kind}_delta_us": delta,
        f"{marker_kind}_total_us": run.total_time_us,
    }
    return max(mean, 0.0), details


def difference_of_average_calibrate(run_fn: WorkloadRunner) -> tuple[Dict[str, float], Dict[str, float]]:
    """Difference-of-average calibration of CUPTI inflation (Figure 10)."""
    without_cupti = run_fn(ProfilerConfig.only(cuda_interception=True))
    with_cupti = run_fn(ProfilerConfig.only(cuda_interception=True, cupti=True))
    base_means = _mean_api_durations(without_cupti.trace)
    cupti_means = _mean_api_durations(with_cupti.trace)
    inflation: Dict[str, float] = {}
    for api_name, mean_with in cupti_means.items():
        mean_without = base_means.get(api_name)
        if mean_without is None:
            continue
        inflation[api_name] = max(mean_with - mean_without, 0.0)
    default = sum(inflation.values()) / len(inflation) if inflation else 0.0
    details = {"cupti_default_us": default}
    return inflation, details


def calibrate(run_fn: WorkloadRunner) -> CalibrationResult:
    """Full calibration: delta calibration for interception/annotations plus
    difference-of-average calibration for CUPTI.

    The workload runner is invoked six times (one uninstrumented baseline,
    three single-flag runs, and two runs for the CUPTI difference).  In the
    real tool this is a one-time cost per workload; the result is reusable.
    """
    baseline = run_fn(ProfilerConfig.uninstrumented())
    details: Dict[str, float] = {"baseline_total_us": baseline.total_time_us}

    pyprof_us, d = delta_calibrate(
        run_fn, flag="pyprof", marker_kind=OVERHEAD_PYPROF, baseline_total_us=baseline.total_time_us)
    details.update(d)
    annotation_us, d = delta_calibrate(
        run_fn, flag="annotations", marker_kind=OVERHEAD_ANNOTATION, baseline_total_us=baseline.total_time_us)
    details.update(d)
    cuda_us, d = delta_calibrate(
        run_fn, flag="cuda_interception", marker_kind=OVERHEAD_CUDA_INTERCEPTION,
        baseline_total_us=baseline.total_time_us)
    details.update(d)
    cupti_per_api, d = difference_of_average_calibrate(run_fn)
    details.update(d)

    return CalibrationResult(
        pyprof_us=pyprof_us,
        annotation_us=annotation_us,
        cuda_interception_us=cuda_us,
        cupti_per_api_us=cupti_per_api,
        details=details,
    )
