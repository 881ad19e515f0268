"""TraceDB: the query/aggregation engine over a sharded trace store.

Chunks are loaded lazily (with a small LRU cache) and filtered scans use
the per-chunk index statistics — time range, phases, categories — to skip
chunks that cannot contain a match, so a query over one phase of one worker
touches only that worker's relevant chunks rather than the whole store.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..profiler.columns import ColumnarTrace, TraceColumns
from ..profiler.events import Event, EventTrace, OverheadMarker, merge_traces
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
        """Total stack events (operations excluded); loads only unindexed chunks."""
        total = 0
        for meta in self.chunks(worker):
            if meta.num_events is not None:
                total += meta.num_events
            else:
                total += len(self._payload(meta).events)
        return total

    def span_us(self) -> float:
        """Largest end timestamp across every shard."""
        span = 0.0
        for meta in self.chunks():
            if meta.end_us is not None:
                span = max(span, meta.end_us)
            else:
                payload = self._payload(meta)
                for record in payload.events + payload.operations:
                    span = max(span, record.end_us)
        return span

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
        out: List[Event] = []
        for event in self.iter_events(worker=worker, phase=phase, category=category,
                                      start_us=start_us, end_us=end_us):
            out.append(event)
            if limit is not None and len(out) >= limit:
                break
        return out

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
    def read_worker(self, worker: str) -> EventTrace:
        """Materialise one worker's full shard as an in-memory trace."""
        entry = self._entry(worker)
        trace = EventTrace(metadata=dict(entry.metadata))
        for meta in entry.chunks:
            payload = self._payload(meta)
            trace.events.extend(payload.events)
            trace.operations.extend(payload.operations)
            trace.markers.extend(payload.markers)
        return trace

    def columnar_trace(self, workers: Optional[Iterable[str]] = None) -> ColumnarTrace:
        """(A subset of) the store as one trace held in column arrays.

        The same records, in the same order and with the same merged
        metadata, as :meth:`to_event_trace`; the record objects are built
        only when the returned trace's ``events`` / ``operations`` /
        ``markers`` are read, from the chunks decoded here.
        """
        names = sorted(workers) if workers is not None else self.workers()
        chunks = [self._columns(meta) for name in names for meta in self._entry(name).chunks]
        metadata: Dict[str, object] = {}
        for name in names:
            for key, value in self._entry(name).metadata.items():
                metadata.setdefault(key, value)

        def load() -> EventTrace:
            trace = EventTrace(metadata=metadata)
            for chunk in chunks:
                payload = chunk.payload()
                trace.events.extend(payload.events)
                trace.operations.extend(payload.operations)
                trace.markers.extend(payload.markers)
            return trace

        columns = TraceColumns.concat([chunk.trace_columns() for chunk in chunks])
        return ColumnarTrace(columns, metadata, load)

    def read_all(self) -> Dict[str, EventTrace]:
        return {worker: self.read_worker(worker) for worker in self.workers()}

    def to_event_trace(self, workers: Optional[Iterable[str]] = None) -> EventTrace:
        """Materialise (a subset of) the store as one merged trace."""
        names = sorted(workers) if workers is not None else self.workers()
        return merge_traces(self.read_worker(name) for name in names)

    # ---------------------------------------------------------------- summary
    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-worker shape of the store, from index statistics alone."""
        out: Dict[str, Dict[str, object]] = {}
        for worker in self.workers():
            metas = self._workers[worker].chunks
            known = [m for m in metas if m.num_records is not None]
            phases = sorted({p for m in known if m.phases for p in m.phases})
            categories = sorted({c for m in known if m.categories for c in m.categories})
            ends = [m.end_us for m in known if m.end_us is not None]
            starts = [m.start_us for m in known if m.start_us is not None]
            out[worker] = {
                "chunks": len(metas),
                "legacy_chunks": sum(1 for m in metas if m.legacy),
                "events": sum(m.num_events or 0 for m in known),
                "operations": sum(m.num_operations or 0 for m in known),
                "markers": sum(m.num_markers or 0 for m in known),
                "start_us": min(starts) if starts else None,
                "end_us": max(ends) if ends else None,
                "phases": phases,
                "categories": categories,
                "metadata": dict(self._workers[worker].metadata),
            }
        return out
