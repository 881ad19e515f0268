"""The original per-boundary Python overlap sweep, kept as a test oracle.

:func:`repro.profiler.overlap.compute_overlap` accumulates each worker's
regions with a vectorized numpy sweep over column arrays
(``overlap._accumulate_worker``).  The Python loop it replaced is kept here
unchanged as :func:`accumulate_worker_loop`, on record objects.
:func:`accumulate_columns_loop` has the shipped sweep's signature: it turns
one worker's columns back into objects and runs the loop, so swapping it in
with ``overlap._accumulate_worker = accumulate_columns_loop`` makes
``compute_overlap`` run the original loop, and it must return the same
regions, key order and float bits (``tests/test_profiler_overlap.py``); the
wall-clock benchmark times the loop as the pre-optimization baseline.
:func:`compute_overlap_loop` is the whole original object path, grouping
included, for checks that must not share any code with the column path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.profiler.events import CATEGORY_OPERATION, Event
from repro.profiler.overlap import UNTRACKED, OverlapKey, OverlapResult

from .event_trace import EventTrace


def innermost_operation(active_ops: List[Event]) -> str:
    """The innermost of a set of properly-nested active operation events."""
    if not active_ops:
        return UNTRACKED
    # Operations nest properly, so the one that started last is the innermost.
    return max(active_ops, key=lambda op: op.start_us).name


def accumulate_worker_loop(events: List[Event], operations: List[Event],
                           regions: Dict[OverlapKey, float]) -> None:
    """The original per-boundary Python sweep (preserved byte-identity oracle)."""
    if not events and not operations:
        return

    # Sweep line over every interval boundary.
    boundaries: set = set()
    for event in events:
        boundaries.add(event.start_us)
        boundaries.add(event.end_us)
    for op in operations:
        boundaries.add(op.start_us)
        boundaries.add(op.end_us)
    points = sorted(boundaries)
    if len(points) < 2:
        return

    # Build per-point deltas for efficiency: category -> count changes.
    starts: Dict[float, List[Event]] = defaultdict(list)
    ends: Dict[float, List[Event]] = defaultdict(list)
    for event in events:
        starts[event.start_us].append(event)
        ends[event.end_us].append(event)
    op_starts: Dict[float, List[Event]] = defaultdict(list)
    op_ends: Dict[float, List[Event]] = defaultdict(list)
    for op in operations:
        op_starts[op.start_us].append(op)
        op_ends[op.end_us].append(op)

    active_counts: Dict[str, int] = defaultdict(int)
    active_ops: List[Event] = []

    for i, point in enumerate(points):
        # Process interval [previous point, point) before applying changes at `point`.
        for op in op_ends.get(point, ()):  # closing before opening keeps zero-length ops out
            # Evict by identity, not equality: two annotations with the same
            # name/start/end are equal as dataclasses, and list.remove would
            # evict whichever instance comes first — corrupting the active
            # set when duplicate identical operations are open at once.
            for j in range(len(active_ops) - 1, -1, -1):
                if active_ops[j] is op:
                    del active_ops[j]
                    break
        for event in ends.get(point, ()):
            active_counts[event.category] -= 1

        for op in op_starts.get(point, ()):
            active_ops.append(op)
        for event in starts.get(point, ()):
            active_counts[event.category] += 1

        if i + 1 >= len(points):
            break
        segment = points[i + 1] - point
        categories = frozenset(cat for cat, count in active_counts.items() if count > 0 and cat != CATEGORY_OPERATION)
        if not categories and not active_ops:
            continue
        operation = innermost_operation(active_ops)
        if not categories:
            # Operation open but nothing measured (should not normally happen).
            continue
        regions[(operation, categories)] += segment


def accumulate_columns_loop(strings, events, operations,
                            regions: Dict[OverlapKey, float]) -> None:
    """:func:`accumulate_worker_loop` behind the column sweep's signature."""
    def records(columns, label_is_name: bool) -> List[Event]:
        return [Event(CATEGORY_OPERATION, strings[label], start, end) if label_is_name
                else Event(strings[label], "", start, end)
                for label, start, end in zip(columns.label.tolist(), columns.start.tolist(),
                                             columns.end.tolist())]

    accumulate_worker_loop(records(events, False), records(operations, True), regions)


def compute_overlap_loop(trace: EventTrace) -> OverlapResult:
    """The original ``compute_overlap`` on record objects: per-worker
    grouping in trace order, the loop per worker, an ordered merge."""
    worker_list = trace.workers() or ["worker_0"]
    results = []
    for worker in worker_list:
        regions: Dict[OverlapKey, float] = defaultdict(float)
        accumulate_worker_loop(
            [e for e in trace.events if e.worker == worker and e.end_us > e.start_us],
            [op for op in trace.operations if op.worker == worker and op.end_us > op.start_us],
            regions)
        results.append(OverlapResult(regions=dict(regions)))
    return OverlapResult.merge(results)
