"""The original per-boundary Python overlap sweep, kept as a test oracle.

:func:`repro.profiler.overlap.compute_overlap` accumulates each worker's
regions with a vectorized numpy sweep (``overlap._accumulate_worker``).
The Python loop it replaced is kept here unchanged as
:func:`accumulate_worker_loop`, with the same signature: swap it in with
``overlap._accumulate_worker = accumulate_worker_loop`` and
``compute_overlap`` must return the same regions, key order and float bits
(``tests/test_profiler_overlap.py``); the wall-clock benchmark times it as
the pre-optimization baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.profiler.events import CATEGORY_OPERATION, Event
from repro.profiler.overlap import UNTRACKED, OverlapKey


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
