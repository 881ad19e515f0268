"""TraceDB: the query/aggregation engine over a sharded trace store.

Chunks are loaded lazily (with a small LRU cache) and filtered scans use
the per-chunk index statistics — time range, phases, categories — to skip
chunks that cannot contain a match, so a query over one phase of one worker
touches only that worker's relevant chunks rather than the whole store.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..profiler.columns import ColumnarTrace, TraceColumns
from ..profiler.events import Event, OverheadMarker
from .format import ChunkColumns, ChunkMeta, ChunkPayload, read_columns, read_index

CategoryFilter = Union[str, Sequence[str], None]


def _category_set(category: CategoryFilter) -> Optional[List[str]]:
    if category is None:
        return None
    if isinstance(category, str):
        return [category]
    return list(category)


def _event_matches(
    event: Event,
    *,
    phase: Optional[str],
    categories: Optional[List[str]],
    start_us: Optional[float],
    end_us: Optional[float],
) -> bool:
    if phase is not None and event.phase != phase:
        return False
    if categories is not None and event.category not in categories:
        return False
    if start_us is not None and event.end_us <= start_us:
        return False
    if end_us is not None and event.start_us >= end_us:
        return False
    return True


class TraceDB:
    """Read-only handle on a (possibly still growing) trace store directory."""

    def __init__(self, directory: str, *, cache_chunks: int = 8) -> None:
        self.directory = Path(directory)
        self._workers = read_index(self.directory)
        self._cache: "OrderedDict[str, ChunkColumns]" = OrderedDict()
        self._cache_chunks = max(cache_chunks, 1)
        #: Number of chunk files decoded from disk (cache misses); lets tests
        #: and the CLI observe how much a filtered scan actually touched.
        self.chunks_loaded = 0

    # ----------------------------------------------------------------- shape
    def workers(self) -> List[str]:
        return sorted(self._workers.keys())

    def chunks(self, worker: Optional[str] = None) -> List[ChunkMeta]:
        if worker is not None:
            return list(self._entry(worker).chunks)
        return [meta for w in self.workers() for meta in self._workers[w].chunks]

    def metadata(self, worker: str) -> Dict[str, object]:
        return dict(self._entry(worker).metadata)

    def _entry(self, worker: str):
        entry = self._workers.get(worker)
        if entry is None:
            raise KeyError(f"worker {worker!r} not present in trace store {self.directory}")
        return entry

    def num_events(self, worker: Optional[str] = None) -> int:
        """Total stack events (operations excluded), from the index."""
        return sum(meta.num_events for meta in self.chunks(worker))

    def span_us(self) -> float:
        """Largest end timestamp across every shard."""
        return max((meta.end_us for meta in self.chunks() if meta.end_us is not None),
                   default=0.0)

    # ------------------------------------------------------------ chunk load
    def _columns(self, meta: ChunkMeta) -> ChunkColumns:
        cached = self._cache.get(meta.file)
        if cached is not None:
            self._cache.move_to_end(meta.file)
            return cached
        columns = read_columns(self.directory / meta.file)
        self.chunks_loaded += 1
        self._cache[meta.file] = columns
        if len(self._cache) > self._cache_chunks:
            self._cache.popitem(last=False)
        return columns

    def _payload(self, meta: ChunkMeta) -> ChunkPayload:
        return self._columns(meta).payload()

    def chunk_payload(self, meta: ChunkMeta) -> ChunkPayload:
        """Load (or fetch from the cache) one chunk's decoded records."""
        return self._payload(meta)

    def _selected_workers(self, worker: Optional[str]) -> List[str]:
        if worker is None:
            return self.workers()
        self._entry(worker)  # raise KeyError early
        return [worker]

    # ----------------------------------------------------------------- scans
    def iter_events(
        self,
        *,
        worker: Optional[str] = None,
        phase: Optional[str] = None,
        category: CategoryFilter = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
    ) -> Iterator[Event]:
        """Lazily yield stack events matching every given filter.

        The time window selects events *overlapping* ``[start_us, end_us)``.
        """
        categories = _category_set(category)
        for name in self._selected_workers(worker):
            for meta in self._workers[name].chunks:
                if not meta.may_contain(phase=phase, categories=categories,
                                        start_us=start_us, end_us=end_us):
                    continue
                for event in self._payload(meta).events:
                    if _event_matches(event, phase=phase, categories=categories,
                                      start_us=start_us, end_us=end_us):
                        yield event

    def query(
        self,
        *,
        worker: Optional[str] = None,
        phase: Optional[str] = None,
        category: CategoryFilter = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """The matching stack events, at most ``limit`` of them."""
        events = self.iter_events(worker=worker, phase=phase, category=category,
                                  start_us=start_us, end_us=end_us)
        return list(events if limit is None else islice(events, limit))

    def count_events(self, **filters) -> int:
        return sum(1 for _ in self.iter_events(**filters))

    def iter_operations(
        self,
        *,
        worker: Optional[str] = None,
        phase: Optional[str] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
    ) -> Iterator[Event]:
        for name in self._selected_workers(worker):
            for meta in self._workers[name].chunks:
                if not meta.may_contain(phase=phase, start_us=start_us, end_us=end_us):
                    continue
                for op in self._payload(meta).operations:
                    if _event_matches(op, phase=phase, categories=None,
                                      start_us=start_us, end_us=end_us):
                        yield op

    def iter_markers(
        self,
        *,
        worker: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> Iterator[OverheadMarker]:
        for name in self._selected_workers(worker):
            for meta in self._workers[name].chunks:
                for marker in self._payload(meta).markers:
                    if kind is None or marker.kind == kind:
                        yield marker

    # --------------------------------------------------------- materialising
    def read_worker(self, worker: str) -> ColumnarTrace:
        """One worker's full shard as a trace."""
        return self.columnar_trace([worker])

    def columnar_trace(self, workers: Optional[Iterable[str]] = None) -> ColumnarTrace:
        """(A subset of) the store as one trace held in column arrays.

        Workers in sorted order, each worker's chunks in order; the metadata
        is every selected worker's, merged (the first worker's value wins).
        """
        names = sorted(workers) if workers is not None else self.workers()
        chunks = [self._columns(meta) for name in names for meta in self._entry(name).chunks]
        metadata: Dict[str, object] = {}
        for name in names:
            for key, value in self._entry(name).metadata.items():
                metadata.setdefault(key, value)
        return ColumnarTrace(TraceColumns.concat([chunk.trace_columns() for chunk in chunks]),
                             metadata)

    # ---------------------------------------------------------------- summary
    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-worker shape of the store, from index statistics alone."""
        out: Dict[str, Dict[str, object]] = {}
        for worker in self.workers():
            metas = self._workers[worker].chunks
            ends = [m.end_us for m in metas if m.end_us is not None]
            starts = [m.start_us for m in metas if m.start_us is not None]
            out[worker] = {
                "chunks": len(metas),
                "events": sum(m.num_events for m in metas),
                "operations": sum(m.num_operations for m in metas),
                "markers": sum(m.num_markers for m in metas),
                "start_us": min(starts) if starts else None,
                "end_us": max(ends) if ends else None,
                "phases": sorted({p for m in metas for p in m.phases}),
                "categories": sorted({c for m in metas for c in m.categories}),
                "metadata": dict(self._workers[worker].metadata),
            }
        return out
