"""Overhead correction: subtract calibrated book-keeping time from the trace.

The profiler leaves an :class:`~repro.profiler.events.OverheadMarker` at every
point where its book-keeping code ran.  Correction looks up the calibrated
average duration of that book-keeping, finds the operation that was active at
that moment, and subtracts the estimate from the stack category the
book-keeping time landed in (Python for interception wrappers and
annotations, CUDA API for the librlscope hook and CUPTI inflation) — i.e. the
time is removed "at the precise point when it occurs" (Section 3.4).

All markers are attributed at once, from the trace's column arrays
(:mod:`repro.profiler.columns`): one calibrated duration per distinct
``(kind, api_name)``, one :func:`numpy.searchsorted` per worker into that
worker's :class:`OperationLocator`, and one sequential sum per
``(operation, category)`` key in first-occurrence order.  The per-marker
loop this replaced is kept as the test oracle
``tests/oracles/correction_loop.py`` and pinned bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import CalibrationResult
from .columns import (
    NO_ID,
    ColumnarTrace,
    IntervalColumns,
    TraceColumns,
    groups_first_seen,
    sequential_sum,
    trace_columns,
)
from .events import OVERHEAD_CATEGORY, Event, EventTrace
from .overlap import UNTRACKED, OverlapResult

Trace = Union[EventTrace, ColumnarTrace]


class OperationLocator:
    """Finds the innermost operation active at given times for one worker.

    The innermost operation at time ``t`` is the one with the latest start
    among all operations with ``start_us <= t <= end_us`` (ties broken toward
    the later entry in trace order).  The answer for every elementary
    segment between interval boundaries is precomputed once, so a batch of
    queries is a single :func:`numpy.searchsorted`.

    Because an operation is active on the *closed* interval
    ``[start_us, end_us]``, the answer exactly at a boundary point can differ
    from the answer in the open segment that follows it; both are stored.
    """

    def __init__(self, operations: Sequence[Event]) -> None:
        columns = TraceColumns(source=EventTrace(operations=list(operations)))
        self._index(columns.strings, columns.operations)

    @classmethod
    def from_columns(cls, strings: Sequence[str],
                     operations: IntervalColumns) -> "OperationLocator":
        """A locator over one worker's operation columns (names index ``strings``)."""
        locator = cls.__new__(cls)
        locator._index(strings, operations)
        return locator

    def _index(self, strings: Sequence[str], operations: IntervalColumns) -> None:
        self._strings = strings
        points = np.unique(np.concatenate((operations.start, operations.end)))
        self._points = points
        self._at_point = np.full(points.size, NO_ID, dtype=np.int64)
        self._after_point = np.full(max(points.size - 1, 0), NO_ID, dtype=np.int64)
        # Paint in (start, trace index) order: the last painter of a point or
        # segment is the innermost operation there.  An operation covers the
        # points [start, end] and the open segments between them.
        first = np.searchsorted(points, operations.start).tolist()
        last = np.searchsorted(points, operations.end).tolist()
        names = operations.label.tolist()
        for i in np.lexsort((np.arange(len(names)), operations.start)).tolist():
            self._at_point[first[i]:last[i] + 1] = names[i]
            self._after_point[first[i]:last[i]] = names[i]

    def locate_ids(self, times: np.ndarray) -> np.ndarray:
        """String id of the innermost operation at each time (:data:`NO_ID`: none)."""
        points = self._points
        out = np.full(times.size, NO_ID, dtype=np.int64)
        if not points.size:
            return out
        index = np.searchsorted(points, times, side="right") - 1
        seen = index >= 0
        at = seen & (points[np.maximum(index, 0)] == times)
        out[at] = self._at_point[index[at]]
        between = seen & ~at & (index < points.size - 1)
        out[between] = self._after_point[index[between]]
        return out

    def locate(self, time_us: float) -> str:
        (name,) = self.locate_ids(np.array([time_us], dtype=np.float64)).tolist()
        return UNTRACKED if name == NO_ID else self._strings[name]


def locate_operations(columns: TraceColumns, workers: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Innermost operation of each ``(worker id, time)`` query, as a name id.

    Every worker's operations get one :class:`OperationLocator`; a query on
    a worker without operations, or at a time no operation covers, is the id
    of :data:`UNTRACKED`.
    """
    operations = columns.operations
    by_worker = dict(groups_first_seen(operations.worker))
    untracked = int(columns.intern([UNTRACKED])[0])
    out = np.full(times.size, untracked, dtype=np.int64)
    for worker, positions in groups_first_seen(workers):
        if worker in by_worker:
            locator = OperationLocator.from_columns(
                columns.strings, operations.take(by_worker[worker]))
            names = locator.locate_ids(times[positions])
            out[positions] = np.where(names == NO_ID, untracked, names)
    return out


def overhead_by_operation_category(
    trace: Trace,
    calibration: CalibrationResult,
) -> Dict[Tuple[str, str], float]:
    """Estimated book-keeping time per (operation, category) bucket.

    Keys appear in the order of their first marker; each bucket sums its
    markers' durations in marker order.  Markers with a non-positive
    calibrated duration are skipped.
    """
    columns = trace_columns(trace)
    markers = columns.markers
    durations = calibration.marker_overheads_us(columns)
    keep = np.flatnonzero(~(durations <= 0))
    operations = locate_operations(columns, markers.worker[keep], markers.time[keep])
    kind_category = np.full(len(columns.strings), NO_ID, dtype=np.int64)
    for kind, category in OVERHEAD_CATEGORY.items():
        kind_id = columns.id_of(kind)
        if kind_id != NO_ID:
            kind_category[kind_id] = columns.intern([category])[0]
    categories = kind_category[markers.kind[keep]]
    codes = operations * len(columns.strings) + categories
    durations = durations[keep]
    strings = columns.strings
    return {
        (strings[code // len(strings)], strings[code % len(strings)]):
            sequential_sum(durations[positions])
        for code, positions in groups_first_seen(codes)}


def corrected_category_breakdown(
    breakdown: Dict[str, Dict[str, float]],
    overheads: Dict[Tuple[str, str], float],
) -> Dict[str, Dict[str, float]]:
    """Subtract per-(operation, category) overhead estimates from a breakdown.

    Values are clamped at zero: calibration noise must never produce negative
    critical-path time.
    """
    corrected: Dict[str, Dict[str, float]] = {
        op: dict(categories) for op, categories in breakdown.items()
    }
    for (operation, category), overhead in overheads.items():
        if operation not in corrected:
            continue
        categories = corrected[operation]
        if category in categories:
            categories[category] = max(categories[category] - overhead, 0.0)
        else:
            # The overhead landed in a category with no measured time (e.g.
            # all of that category's time *was* overhead); nothing to subtract.
            continue
    return corrected


def trace_total_us(trace: Trace) -> float:
    """The trace's recorded ``total_time_us``, else its span (scanned only then)."""
    metadata = trace.metadata
    if "total_time_us" in metadata:
        return float(metadata["total_time_us"])
    return float(trace.span_us())


def corrected_total_us(trace: Trace, calibration: CalibrationResult, *, total_us: Optional[float] = None) -> float:
    """Corrected total training time: instrumented total minus estimated overhead."""
    if total_us is None:
        total_us = trace_total_us(trace)
    return max(total_us - calibration.total_overhead_us(trace), 0.0)


def corrected_overlap_total_us(overlap: OverlapResult, trace: Trace, calibration: CalibrationResult) -> float:
    """Corrected total of the overlap regions (tracked time only)."""
    overheads = overhead_by_operation_category(trace, calibration)
    tracked_overhead = sum(v for (op, _), v in overheads.items() if op != UNTRACKED)
    return max(overlap.total_us(include_untracked=False) - tracked_overhead, 0.0)
