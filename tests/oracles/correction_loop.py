"""The per-marker overhead correction, kept as a test oracle.

:func:`repro.profiler.correction.overhead_by_operation_category`,
:meth:`~repro.profiler.calibration.CalibrationResult.total_overhead_us` and
:meth:`~repro.profiler.analysis.WorkloadAnalysis.transition_counts` work on
a trace's column arrays: one calibrated duration per ``(kind, api_name)``,
one ``searchsorted`` per worker, one sequential sum per key.  The loops they
replaced are kept here unchanged, on record objects: the heap-sweep
:class:`OperationLocator` with one ``bisect`` per query, the per-marker
:func:`overhead_by_operation_category_loop`, the per-marker
:func:`overhead_for_marker_loop` behind :func:`total_overhead_loop`, and the
per-event :func:`transition_counts_loop`.  The shipped column code must
return the same keys in the same order with the same float bits
(``tests/test_correction_oracle.py``).
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.profiler.analysis import TRANSITION_CATEGORIES
from repro.profiler.calibration import CalibrationResult
from repro.profiler.events import (
    OVERHEAD_ANNOTATION,
    OVERHEAD_CATEGORY,
    OVERHEAD_CUDA_INTERCEPTION,
    OVERHEAD_CUPTI,
    OVERHEAD_PYPROF,
    Event,
    EventTrace,
    OverheadMarker,
)
from repro.profiler.overlap import UNTRACKED


class OperationLocator:
    """Finds the innermost operation active at a given time for one worker.

    The innermost operation at time ``t`` is the one with the latest start
    among all operations with ``start_us <= t <= end_us`` (ties broken toward
    the later entry in start-sorted order).  A linear scan per query makes
    overhead correction O(markers x operations); instead we sweep the
    interval boundaries once and precompute the answer for every elementary
    segment, so each query is a single binary search.

    Because an operation is active on the *closed* interval
    ``[start_us, end_us]``, the answer exactly at a boundary point can differ
    from the answer in the open segment that follows it; both are stored.
    """

    def __init__(self, operations: List[Event]) -> None:
        ops = sorted(operations, key=lambda op: op.start_us)
        points: List[float] = sorted({p for op in ops for p in (op.start_us, op.end_us)})
        self._points = points
        self._at_point: List[str] = []
        self._after_point: List[str] = []
        if not points:
            return

        starts_at: Dict[float, List[int]] = defaultdict(list)
        for index, op in enumerate(ops):
            starts_at[op.start_us].append(index)

        # Max-heap over (start, sorted-index) with lazy deletion: the top
        # entry still active is the innermost operation.  Each op is pushed
        # and popped at most once, so the whole sweep is O(n log n).
        heap: List[Tuple[float, int]] = []

        def innermost(active_threshold: float) -> str:
            """Name of the top op whose end_us >= active_threshold."""
            while heap and ops[-heap[0][1]].end_us < active_threshold:
                heapq.heappop(heap)
            return ops[-heap[0][1]].name if heap else UNTRACKED

        for i, point in enumerate(points):
            for index in starts_at.get(point, ()):
                heapq.heappush(heap, (-ops[index].start_us, -index))
            # Queries exactly at `point` see ops with end_us >= point ...
            self._at_point.append(innermost(point))
            # ... while queries strictly between this point and the next see
            # only ops that survive past `point`.
            if i + 1 < len(points):
                self._after_point.append(innermost(points[i + 1]))

    def locate(self, time_us: float) -> str:
        points = self._points
        index = bisect.bisect_right(points, time_us) - 1
        if index < 0:
            return UNTRACKED
        if points[index] == time_us:
            return self._at_point[index]
        if index >= len(self._after_point):
            return UNTRACKED
        return self._after_point[index]


def overhead_for_marker_loop(self: CalibrationResult, marker: OverheadMarker) -> float:
    """Estimated duration of the book-keeping behind one overhead marker (original)."""
    if marker.kind == OVERHEAD_PYPROF:
        return self.pyprof_us
    if marker.kind == OVERHEAD_ANNOTATION:
        return self.annotation_us
    if marker.kind == OVERHEAD_CUDA_INTERCEPTION:
        return self.cuda_interception_us
    if marker.kind == OVERHEAD_CUPTI:
        if marker.api_name is not None and marker.api_name in self.cupti_per_api_us:
            return self.cupti_per_api_us[marker.api_name]
        return self.details.get("cupti_default_us", 0.0)
    raise ValueError(f"unknown overhead marker kind: {marker.kind!r}")


def overhead_by_operation_category_loop(
    trace: EventTrace,
    calibration: CalibrationResult,
) -> Dict[Tuple[str, str], float]:
    """Estimated book-keeping time per (operation, category) bucket (original loop)."""
    locators = {
        worker: OperationLocator([op for op in trace.operations if op.worker == worker])
        for worker in trace.workers()
    }
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for marker in trace.markers:
        duration = overhead_for_marker_loop(calibration, marker)
        if duration <= 0:
            continue
        locator = locators.get(marker.worker)
        operation = locator.locate(marker.time_us) if locator is not None else UNTRACKED
        category = OVERHEAD_CATEGORY[marker.kind]
        totals[(operation, category)] += duration
    return dict(totals)


def transition_counts_loop(trace: EventTrace) -> Dict[str, Dict[str, int]]:
    """operation -> transition category -> number of native calls (original loop)."""
    locators = _build_locators(trace)
    counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for event in trace.events:
        if event.category not in TRANSITION_CATEGORIES:
            continue
        locator = locators.get(event.worker)
        operation = locator.locate(event.start_us) if locator is not None else UNTRACKED
        counts[operation][event.category] += 1
    return {op: dict(cats) for op, cats in counts.items()}


def _build_locators(trace: EventTrace) -> Dict[str, OperationLocator]:
    """One interval-indexed innermost-operation locator per worker, so
    transition counting stays O((events + operations) log operations)."""
    return {
        worker: OperationLocator([op for op in trace.operations if op.worker == worker])
        for worker in trace.workers()
    }


def total_overhead_loop(calibration: CalibrationResult, trace: EventTrace) -> float:
    """Total estimated book-keeping time contained in ``trace`` (original sum)."""
    return sum(overhead_for_marker_loop(calibration, marker) for marker in trace.markers)
