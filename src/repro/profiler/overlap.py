"""Cross-stack event overlap computation (Section 3.3 of the paper).

The raw trace is a set of intervals at different stack levels plus the user's
(possibly nested) operation annotations.  The overlap algorithm walks the
trace boundaries left-to-right and, for every elementary region, records

* which **operation** is active (the innermost one),
* which **categories** are active (Python / Simulator / Backend / CUDA on the
  CPU side; GPU on the device side),

and sums the region durations per ``(operation, category-set)`` key.  All of
the paper's breakdowns (Figures 4, 5, 7, 8) are reductions of this map.

The walk is one vectorized numpy sweep per worker.  The per-boundary Python
loop it replaced is kept as a test oracle (``tests/oracles/overlap_loop.py``)
and pinned byte-identical to it, region order and float bits included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .events import (
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CPU_CATEGORIES,
    CPU_CATEGORY_PRIORITY,
    Event,
    EventTrace,
)

#: Key of one overlap bucket: (operation name, active category set).
OverlapKey = Tuple[str, FrozenSet[str]]

#: Marker operation name for time not covered by any operation annotation.
UNTRACKED = "<untracked>"

# Resource classes used in the paper's figures.
RESOURCE_CPU = "CPU"
RESOURCE_GPU = "GPU"
RESOURCE_CPU_GPU = "CPU + GPU"


@dataclass
class OverlapResult:
    """Durations (in microseconds) per (operation, active-category-set) region."""

    regions: Dict[OverlapKey, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ merge
    @classmethod
    def merge(cls, results: Iterable["OverlapResult"]) -> "OverlapResult":
        """Reduce several partial results (e.g. per-shard) into one.

        Region durations are summed key-wise in the given order, which makes
        the reduction deterministic: merging per-worker results in sorted
        worker order reproduces :func:`compute_overlap` on the merged trace
        bit for bit (the single-pass algorithm performs this exact merge
        internally).  Merging is associative up to floating-point rounding.
        """
        merged: Dict[OverlapKey, float] = {}
        for result in results:
            for key, duration in result.regions.items():
                merged[key] = merged.get(key, 0.0) + duration
        return cls(regions=merged)

    # ---------------------------------------------------------------- totals
    def total_us(self, *, include_untracked: bool = True) -> float:
        return sum(
            duration for (operation, _), duration in self.regions.items()
            if include_untracked or operation != UNTRACKED
        )

    def operations(self) -> List[str]:
        return sorted({operation for operation, _ in self.regions if operation != UNTRACKED})

    # ------------------------------------------------------------ reductions
    def resource_class(self, categories: FrozenSet[str]) -> str:
        has_cpu = any(cat in CPU_CATEGORIES for cat in categories)
        has_gpu = CATEGORY_GPU in categories
        if has_cpu and has_gpu:
            return RESOURCE_CPU_GPU
        if has_gpu:
            return RESOURCE_GPU
        return RESOURCE_CPU

    @staticmethod
    def cpu_category(categories: FrozenSet[str]) -> Optional[str]:
        """The most specific CPU category active in a region (or None)."""
        cpu = [cat for cat in categories if cat in CPU_CATEGORIES]
        if not cpu:
            return None
        return max(cpu, key=lambda cat: CPU_CATEGORY_PRIORITY[cat])

    def category_breakdown(self, *, include_untracked: bool = False) -> Dict[str, Dict[str, float]]:
        """Per-operation stacked breakdown: operation -> category label -> microseconds.

        The category label is the most specific CPU category of a region, or
        ``"GPU"`` for regions where only the GPU is active.  Each region is
        counted exactly once, so per-operation values sum to that operation's
        total time.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (operation, categories), duration in self.regions.items():
            if operation == UNTRACKED and not include_untracked:
                continue
            label = self.cpu_category(categories) or CATEGORY_GPU
            out[operation][label] += duration
        return {op: dict(cats) for op, cats in out.items()}

    def resource_breakdown(self, *, include_untracked: bool = False) -> Dict[str, Dict[str, float]]:
        """Per-operation breakdown by resource class (CPU / GPU / CPU + GPU)."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (operation, categories), duration in self.regions.items():
            if operation == UNTRACKED and not include_untracked:
                continue
            out[operation][self.resource_class(categories)] += duration
        return {op: dict(resources) for op, resources in out.items()}

    def full_breakdown(self, *, include_untracked: bool = False) -> Dict[Tuple[str, str, str], float]:
        """Rows keyed by (operation, category label, resource class) -> microseconds."""
        out: Dict[Tuple[str, str, str], float] = defaultdict(float)
        for (operation, categories), duration in self.regions.items():
            if operation == UNTRACKED and not include_untracked:
                continue
            label = self.cpu_category(categories) or CATEGORY_GPU
            out[(operation, label, self.resource_class(categories))] += duration
        return dict(out)

    def gpu_time_us(self, *, include_untracked: bool = True) -> float:
        """Total time during which the GPU was executing (GPU-only plus CPU+GPU)."""
        return sum(
            duration for (operation, categories), duration in self.regions.items()
            if CATEGORY_GPU in categories and (include_untracked or operation != UNTRACKED)
        )

    def resource_time_us(self, resource: str, *, include_untracked: bool = True) -> float:
        """Total time attributed to one resource class (CPU / GPU / CPU + GPU)."""
        return sum(
            duration for (operation, categories), duration in self.regions.items()
            if self.resource_class(categories) == resource
            and (include_untracked or operation != UNTRACKED)
        )

    def category_time_us(self, category: str, *, include_untracked: bool = True) -> float:
        """Total time attributed to ``category`` across all operations."""
        total = 0.0
        for (operation, categories), duration in self.regions.items():
            if operation == UNTRACKED and not include_untracked:
                continue
            label = self.cpu_category(categories) or CATEGORY_GPU
            if label == category:
                total += duration
        return total


def compute_overlap(
    trace: EventTrace,
    *,
    workers: Optional[Iterable[str]] = None,
) -> OverlapResult:
    """Compute cross-stack overlap regions for one worker's trace.

    When ``workers`` is given, each worker's events are processed against its
    own operations and the region durations are summed (per-process critical
    paths, as in the multi-process Minigo view).
    """
    if workers is None:
        worker_list = trace.workers() or ["worker_0"]
    else:
        worker_list = list(workers)

    # Group events and operations by worker in ONE pass over the trace
    # (the original re-filtered the full event list once per worker —
    # O(workers x events) on multi-process traces).  Relative order within
    # each worker's slice is trace order, exactly what the per-worker
    # filter produced, so accumulation is bit-for-bit unchanged.
    wanted = set(worker_list)
    events_by_worker: Dict[str, List[Event]] = {worker: [] for worker in worker_list}
    ops_by_worker: Dict[str, List[Event]] = {worker: [] for worker in worker_list}
    for event in trace.events:
        if event.worker in wanted and event.end_us > event.start_us:
            events_by_worker[event.worker].append(event)
    for op in trace.operations:
        if op.worker in wanted and op.end_us > op.start_us:
            ops_by_worker[op.worker].append(op)

    # One partial result per worker, reduced with OverlapResult.merge: the
    # exact decomposition the shard-parallel path (repro.tracedb.mapreduce)
    # uses, so single-pass and map-reduce results are byte-identical.
    per_worker: List[OverlapResult] = []
    for worker in worker_list:
        regions: Dict[OverlapKey, float] = defaultdict(float)
        _accumulate_worker(events_by_worker[worker], ops_by_worker[worker], regions)
        per_worker.append(OverlapResult(regions=dict(regions)))
    return OverlapResult.merge(per_worker)


def _accumulate_worker(events: List[Event], operations: List[Event],
                       regions: Dict[OverlapKey, float]) -> None:
    """Accumulate overlap regions for one worker's (pre-filtered) slice.

    ``events``/``operations`` must contain only that worker's non-empty
    intervals, in trace order — :func:`compute_overlap` groups them in a
    single pass over the full trace.

    A numpy sweep line, byte-identical to the original per-boundary Python
    loop it replaced (kept as the test oracle
    ``tests/oracles/overlap_loop.py``, which the overlap tests and the
    wall-clock benchmark swap in for this function).  Identity argument,
    piece by piece:

    * **Boundaries** — ``np.unique`` over all interval endpoints produces the
      same sorted points as the loop's ``sorted(set(...))``, and
      ``np.diff`` performs the same IEEE-754 subtractions for segment
      durations.
    * **Category sets** — per-category +1/-1 deltas at each point, prefix-
      summed down the point axis (integer arithmetic, exact); a category is
      active in segment ``i`` iff its count after applying the deltas at
      ``points[i]`` is positive, exactly the loop's state when it charges
      the segment ``[points[i], points[i+1])``.
    * **Innermost operation** — operations are painted onto the segment
      array sorted by ``(start_us asc, trace index desc)``, each writing its
      name over ``[start, end)``; the last painter of a segment therefore
      has the latest start (ties: earliest trace index), which is exactly
      the loop's ``max(active_ops, key=start_us)`` pick (``max`` keeps the
      first of equal keys, and ``active_ops`` holds ops in trace order).
    * **Accumulation order** — per ``(operation, categories)`` key, segment
      durations are reduced with ``np.add.accumulate`` (sequential, not
      pairwise) in left-to-right segment order, seeded with the key's
      current value — the same chain of float additions the loop's
      ``regions[key] += segment`` performs.  Keys are inserted into
      ``regions`` in first-occurrence order so downstream whole-dict
      reductions iterate identically.
    """
    if not events and not operations:
        return
    ev_start = np.array([event.start_us for event in events], dtype=np.float64)
    ev_end = np.array([event.end_us for event in events], dtype=np.float64)
    op_start = np.array([op.start_us for op in operations], dtype=np.float64)
    op_end = np.array([op.end_us for op in operations], dtype=np.float64)
    points = np.unique(np.concatenate((ev_start, ev_end, op_start, op_end)))
    if points.size < 2:
        return
    durations = np.diff(points)
    n_segments = points.size - 1

    # Per-segment active-category bitmasks (CATEGORY_OPERATION never counts,
    # but its events still contribute boundaries above, like in the loop).
    cat_index: Dict[str, int] = {}
    for event in events:
        if event.category != CATEGORY_OPERATION and event.category not in cat_index:
            cat_index[event.category] = len(cat_index)
    if not cat_index:
        return  # no measurable categories: the loop never charges anything
    cat_names = list(cat_index)
    n_cats = len(cat_names)
    cat_of_event = np.array([cat_index.get(event.category, -1) for event in events],
                            dtype=np.int64)
    counted = cat_of_event >= 0
    # Scatter +1/-1 at each counted event's start/end boundary.  bincount on
    # flattened (boundary, category) indices is an exact integer scatter-add
    # (same deltas as np.add.at, substantially faster).
    cats = cat_of_event[counted]
    flat_start = np.searchsorted(points, ev_start[counted]) * n_cats + cats
    flat_end = np.searchsorted(points, ev_end[counted]) * n_cats + cats
    flat_size = points.size * n_cats
    deltas = (np.bincount(flat_start, minlength=flat_size)
              - np.bincount(flat_end, minlength=flat_size)
              ).reshape(points.size, n_cats)
    active = np.cumsum(deltas, axis=0)[:-1] > 0  # (n_segments, n_cats)
    masks = active @ (1 << np.arange(n_cats, dtype=np.int64))

    # Innermost-operation paint: name id per segment, -1 = untracked.
    paint = np.full(n_segments, -1, dtype=np.int64)
    if operations:
        name_ids: Dict[str, int] = {}
        op_name_id = [name_ids.setdefault(op.name, len(name_ids)) for op in operations]
        op_names = list(name_ids)
        start_idx = np.searchsorted(points, op_start)
        end_idx = np.searchsorted(points, op_end)
        for i in sorted(range(len(operations)),
                        key=lambda i: (operations[i].start_us, -i)):
            paint[start_idx[i]:end_idx[i]] = op_name_id[i]

    valid = np.flatnonzero(masks)
    if valid.size == 0:
        return
    durations = durations[valid]
    codes = (paint[valid] + 1) << n_cats | masks[valid]

    # Group segments by code, preserving left-to-right order within each
    # group (stable sort) and first-occurrence order across groups.
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_group = np.argsort(inverse, kind="stable")
    splits = np.split(by_group, np.flatnonzero(np.diff(inverse[by_group])) + 1)
    for group in np.argsort(first, kind="stable"):
        code = int(uniq[group])
        mask, name_id = code & ((1 << n_cats) - 1), (code >> n_cats) - 1
        key = (UNTRACKED if name_id < 0 else op_names[name_id],
               frozenset(cat_names[b] for b in range(n_cats) if mask >> b & 1))
        seed = regions.get(key, 0.0)
        chain = np.concatenate(([seed], durations[splits[group]]))
        regions[key] = float(np.add.accumulate(chain)[-1])
