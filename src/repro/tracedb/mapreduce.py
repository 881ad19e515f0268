"""Shard-parallel map-reduce analysis over a TraceDB store.

Overlap computation (Section 3.3 of the paper) is per-worker by
construction: each worker's events are swept against its own operation
annotations and the resulting region durations are summed.  That makes the
store's per-worker shards a natural map-reduce decomposition:

* **map** — decode one shard's chunks into column arrays
  (:meth:`~repro.tracedb.TraceDB.columnar_trace`) and run
  :func:`~repro.profiler.overlap.compute_overlap` on them (fanned out over a
  :mod:`concurrent.futures` pool);
* **reduce** — :meth:`~repro.profiler.overlap.OverlapResult.merge` the
  per-shard results in sorted worker order.

Because the single-pass :func:`compute_overlap` performs exactly the same
per-worker grouping and the same ordered merge internally, the map-reduce
result is byte-identical to the single-pass result on the same store.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar, Union

from ..profiler.overlap import OverlapResult, compute_overlap
from .store import TraceDB

T = TypeVar("T")

#: Execution modes for the map phase.
MODE_SERIAL = "serial"
MODE_THREAD = "thread"
MODE_PROCESS = "process"
MODES = (MODE_SERIAL, MODE_THREAD, MODE_PROCESS)


def _as_db(source: Union[TraceDB, str]) -> TraceDB:
    return source if isinstance(source, TraceDB) else TraceDB(source)


def _make_executor(mode: str, max_workers: int) -> Executor:
    if mode == MODE_PROCESS:
        return ProcessPoolExecutor(max_workers=max_workers)
    return ThreadPoolExecutor(max_workers=max_workers)


def map_shards(
    source: Union[TraceDB, str],
    shard_fn: Callable[[str, str], T],
    *,
    workers: Optional[Iterable[str]] = None,
    max_workers: Optional[int] = None,
    mode: str = MODE_THREAD,
) -> List[T]:
    """Run ``shard_fn(directory, worker)`` per shard; results in sorted worker order.

    ``mode`` selects the pool: ``"thread"`` (default; chunk decoding releases
    little of the GIL but keeps the pool dependency-free), ``"process"`` (true
    parallelism; ``shard_fn`` must be picklable, i.e. a module-level function)
    or ``"serial"``.  The result order is always the sorted worker order,
    independent of completion order, so reductions are deterministic.
    """
    if mode not in MODES:
        raise ValueError(f"unknown map_shards mode {mode!r}; choose from {MODES}")
    db = _as_db(source)
    directory = str(db.directory)
    worker_list = sorted(workers) if workers is not None else db.workers()
    if not worker_list:
        return []
    if mode == MODE_SERIAL or len(worker_list) == 1:
        return [shard_fn(directory, worker) for worker in worker_list]
    pool_size = max_workers if max_workers is not None else min(len(worker_list), os.cpu_count() or 1)
    try:
        executor = _make_executor(mode, pool_size)
    except (OSError, ImportError):
        # Restricted environments (no /dev/shm, no fork) fall back to serial.
        return [shard_fn(directory, worker) for worker in worker_list]
    try:
        with executor:
            futures = [executor.submit(shard_fn, directory, worker) for worker in worker_list]
            return [future.result() for future in futures]
    except BrokenExecutor:
        # The pool itself died (e.g. fork blocked mid-run); shard_fn errors
        # such as a missing chunk file propagate to the caller unchanged.
        return [shard_fn(directory, worker) for worker in worker_list]


# ------------------------------------------------------------------ overlap
def shard_overlap(directory: str, worker: str) -> OverlapResult:
    """Map step: one worker shard's overlap regions (picklable entry point)."""
    db = TraceDB(directory)
    return compute_overlap(db.columnar_trace([worker]), workers=[worker])


def parallel_overlap(
    source: Union[TraceDB, str],
    *,
    workers: Optional[Iterable[str]] = None,
    max_workers: Optional[int] = None,
    mode: str = MODE_THREAD,
) -> OverlapResult:
    """Map-reduce overlap over a store: per-shard overlap, ordered merge.

    Byte-identical to ``compute_overlap(db.to_event_trace())`` — see the
    module docstring.
    """
    results = map_shards(source, shard_overlap, workers=workers,
                         max_workers=max_workers, mode=mode)
    return OverlapResult.merge(results)


# ----------------------------------------------------------- worker summaries
def shard_summary(directory: str, worker: str):
    """Map step: one worker's Figure 8 summary (picklable entry point)."""
    from ..profiler.analysis import summarize_worker_trace
    db = TraceDB(directory)
    return summarize_worker_trace(worker, db.columnar_trace([worker]))


def parallel_worker_summaries(
    source: Union[TraceDB, str],
    *,
    workers: Optional[Iterable[str]] = None,
    max_workers: Optional[int] = None,
    mode: str = MODE_THREAD,
):
    """Per-worker CPU/GPU summaries (Figure 8), computed shard-parallel."""
    return map_shards(source, shard_summary, workers=workers,
                      max_workers=max_workers, mode=mode)
