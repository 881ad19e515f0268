"""Cross-stack event overlap computation (Section 3.3 of the paper).

The raw trace is a set of intervals at different stack levels plus the user's
(possibly nested) operation annotations.  The overlap algorithm walks the
trace boundaries left-to-right and, for every elementary region, records

* which **operation** is active (the innermost one),
* which **categories** are active (Python / Simulator / Backend / CUDA on the
  CPU side; GPU on the device side),

and sums the region durations per ``(operation, category-set)`` key.  All of
the paper's breakdowns (Figures 4, 5, 7, 8) are reductions of this map.

The walk is one vectorized numpy sweep per worker over the trace's column
arrays (:mod:`repro.profiler.columns`), the same for a store's decoded
``.tdbc`` columns and for the profiler's in-memory trace.  The per-boundary Python loop the sweep replaced is
kept as a test oracle (``tests/oracles/overlap_loop.py``) and pinned
byte-identical to it, region order and float bits included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .columns import (
    ColumnarTrace,
    IntervalColumns,
    TraceColumns,
    groups_first_seen,
    sequential_sum,
    trace_columns,
)
from .events import (
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CPU_CATEGORIES,
    CPU_CATEGORY_PRIORITY,
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
    trace: Union[ColumnarTrace, TraceColumns],
    *,
    workers: Optional[Iterable[str]] = None,
) -> OverlapResult:
    """Compute cross-stack overlap regions for one worker's trace.

    When ``workers`` is given, each worker's events are processed against its
    own operations and the region durations are summed (per-process critical
    paths, as in the multi-process Minigo view).  The sweep runs on the
    trace's column arrays.
    """
    columns = trace_columns(trace)
    if workers is None:
        worker_list = columns.workers() or ["worker_0"]
    else:
        worker_list = list(workers)

    # Group each worker's non-empty intervals once (a stable grouping keeps
    # trace order inside every worker's slice).
    slices = []
    for intervals in (columns.events, columns.operations):
        nonempty = np.flatnonzero(intervals.end > intervals.start)
        by_worker = dict(groups_first_seen(intervals.worker[nonempty]))
        slices.append((intervals, nonempty, by_worker))

    # One partial result per worker, reduced with OverlapResult.merge: the
    # exact decomposition the shard-parallel path (repro.tracedb.mapreduce)
    # uses, so single-pass and map-reduce results are byte-identical.
    none = np.zeros(0, dtype=np.int64)
    per_worker: List[OverlapResult] = []
    for worker in worker_list:
        wid = columns.id_of(worker)
        events, operations = (
            intervals.take(nonempty[by_worker.get(wid, none)])
            for intervals, nonempty, by_worker in slices)
        regions: Dict[OverlapKey, float] = defaultdict(float)
        _accumulate_worker(columns.strings, events, operations, regions)
        per_worker.append(OverlapResult(regions=dict(regions)))
    return OverlapResult.merge(per_worker)


def _accumulate_worker(strings: Sequence[str], events: IntervalColumns,
                       operations: IntervalColumns,
                       regions: Dict[OverlapKey, float]) -> None:
    """Accumulate overlap regions for one worker's (pre-filtered) slice.

    ``events``/``operations`` must contain only that worker's non-empty
    intervals, in trace order, as columns whose labels index ``strings``
    (category ids for events, name ids for operations) —
    :func:`compute_overlap` groups them in a single pass over the trace.

    A numpy sweep line, byte-identical to the original per-boundary Python
    loop it replaced (kept as the test oracle
    ``tests/oracles/overlap_loop.py``, whose ``accumulate_columns_loop`` the
    overlap tests and the wall-clock benchmark swap in for this function).
    Identity argument, piece by piece:

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
    if not events.start.size and not operations.start.size:
        return
    points = np.unique(np.concatenate((events.start, events.end,
                                       operations.start, operations.end)))
    if points.size < 2:
        return
    durations = np.diff(points)
    n_segments = points.size - 1

    # Measurable categories in first-occurrence order (CATEGORY_OPERATION
    # never counts, but its events still contribute boundaries above, like
    # in the loop).
    labels, first = np.unique(events.label, return_index=True)
    cat_ids = [label for label in labels[np.argsort(first)].tolist()
               if strings[label] != CATEGORY_OPERATION]
    if not cat_ids:
        return  # no measurable categories: the loop never charges anything
    n_cats = len(cat_ids)
    local = np.full(len(strings), -1, dtype=np.int64)
    local[cat_ids] = np.arange(n_cats)
    cat_of_event = local[events.label]
    counted = cat_of_event >= 0
    # Scatter +1/-1 at each counted event's start/end boundary.  bincount on
    # flattened (boundary, category) indices is an exact integer scatter-add
    # (same deltas as np.add.at, substantially faster).
    cats = cat_of_event[counted]
    flat_start = np.searchsorted(points, events.start[counted]) * n_cats + cats
    flat_end = np.searchsorted(points, events.end[counted]) * n_cats + cats
    flat_size = points.size * n_cats
    deltas = (np.bincount(flat_start, minlength=flat_size)
              - np.bincount(flat_end, minlength=flat_size)
              ).reshape(points.size, n_cats)
    active = np.cumsum(deltas, axis=0)[:-1] > 0  # (n_segments, n_cats)
    masks = active @ (1 << np.arange(n_cats, dtype=np.int64))

    # Innermost-operation paint: name id per segment, -1 = untracked.
    paint = np.full(n_segments, -1, dtype=np.int64)
    if operations.start.size:
        start_idx = np.searchsorted(points, operations.start).tolist()
        end_idx = np.searchsorted(points, operations.end).tolist()
        names = operations.label.tolist()
        order = np.lexsort((-np.arange(operations.start.size), operations.start))
        for i in order.tolist():
            paint[start_idx[i]:end_idx[i]] = names[i]

    valid = np.flatnonzero(masks)
    if valid.size == 0:
        return
    durations = durations[valid]
    codes = (paint[valid] + 1) << n_cats | masks[valid]
    for code, positions in groups_first_seen(codes):
        mask, name_id = code & ((1 << n_cats) - 1), (code >> n_cats) - 1
        key = (UNTRACKED if name_id < 0 else strings[name_id],
               frozenset(strings[cat_ids[b]] for b in range(n_cats) if mask >> b & 1))
        regions[key] = sequential_sum(durations[positions], regions.get(key, 0.0))
