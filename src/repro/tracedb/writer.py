"""Streaming trace writing: bounded buffers, per-worker shards, one store.

The writer mirrors the paper's off-critical-path trace aggregation: the
profiler appends records as they are produced; whenever a shard's buffer
reaches ``chunk_events`` records it is flushed to a compressed columnar
chunk file and the buffer is emptied, so at most one chunk of records is
ever held in memory per worker.  Flushing performs only host-side I/O — it never touches
the virtual clock, so streaming adds zero virtual time to the profiled
workload.

A shard buffers columns, not record objects: a
:class:`~repro.tracedb.format.ChunkBuffer` interns each record's strings as
it arrives and keeps ids and times in flat lists, and the chunk encoder turns
those into the ``.tdbc`` columns.  Records arrive as field rows — an
interval as ``(category, name, start_us, end_us, worker, phase, metadata)``,
a marker as ``(kind, time_us, api_name, worker, phase)`` — or, on the
profiler's hot paths, as one CUDA API call's fields
(:meth:`SpillingEventTrace.add_api_call`) or a batch of same-category
events (:meth:`SpillingEventTrace.add_intervals`), so the profiler's
per-CUDA-call records never become objects in streaming mode; records that
arrive as :class:`~repro.profiler.events.Event` /
:class:`~repro.profiler.events.OverheadMarker` objects are converted to rows
on the way in.  However records arrive, chunk boundaries fall after the
same records as if each had been added on its own.

Several profilers (e.g. the 16 Minigo self-play workers plus the trainer
and evaluator) can share one :class:`StreamingTraceWriter`, each writing its
own shard into the same store directory; the index is merged incrementally
as shards close, and also survives separate writer instances pointed at the
same directory (read-modify-write index merging).
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..profiler.events import CATEGORY_CUDA_API, CATEGORY_OPERATION, Event, EventTrace, OverheadMarker
from .format import (
    DEFAULT_CHUNK_EVENTS,
    ChunkBuffer,
    ChunkMeta,
    ChunkPayload,
    IntervalRow,
    MarkerRow,
    WorkerEntry,
    chunk_filename,
    interval_row,
    marker_row,
    read_index,
    write_index,
)


class ShardWriter:
    """One worker's shard: a bounded buffer flushed as compressed chunks."""

    def __init__(
        self,
        directory: Path,
        worker: str,
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        start_seq: int = 0,
        on_chunk: Optional[Callable[[ChunkMeta], None]] = None,
    ) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.directory = Path(directory)
        self.worker = worker
        self.chunk_events = chunk_events
        self.seq = start_seq
        self.chunks: List[ChunkMeta] = []
        self.closed = False
        self._on_chunk = on_chunk
        self._buffer = ChunkBuffer()
        self._buffered = 0
        # Totals across the whole shard (buffered + flushed).
        self.total_events = 0
        self.total_operations = 0
        self.total_markers = 0
        self.max_end_us = 0.0
        #: High-water mark of buffered records, for memory accounting.
        self.peak_buffered = 0

    # ------------------------------------------------------------------- add
    @property
    def buffered_records(self) -> int:
        return self._buffered

    def add_event(self, event: Event) -> None:
        self.add_event_row(interval_row(event))

    def add_operation(self, operation: Event) -> None:
        self.add_operation_row(interval_row(operation))

    def add_marker(self, marker: OverheadMarker) -> None:
        self.add_marker_row(marker_row(marker))

    def add_records(self, records: Union[EventTrace, ChunkPayload]) -> None:
        """Append every event, then every operation, then every marker."""
        for event in records.events:
            self.add_event(event)
        for operation in records.operations:
            self.add_operation(operation)
        for marker in records.markers:
            self.add_marker(marker)

    # A closed shard rejects a row before touching the buffer or totals.
    def add_event_row(self, row: IntervalRow) -> None:
        if self.closed:
            self._reject()
        self._buffer.add_event(row)
        self.total_events += 1
        if row[3] > self.max_end_us:
            self.max_end_us = row[3]
        self._after_add()

    def add_operation_row(self, row: IntervalRow) -> None:
        if self.closed:
            self._reject()
        self._buffer.add_operation(row)
        self.total_operations += 1
        if row[3] > self.max_end_us:
            self.max_end_us = row[3]
        self._after_add()

    def add_marker_row(self, row: MarkerRow) -> None:
        if self.closed:
            self._reject()
        self._buffer.add_marker(row)
        self.total_markers += 1
        self._after_add()

    def add_events(self, category: str, intervals: Sequence[Tuple[str, float, float]],
                   worker: str, phase: str) -> None:
        """Append ``(name, start_us, end_us)`` stack events that share the other fields."""
        if self.closed:
            self._reject()
        start = 0
        while start < len(intervals):
            # Room is at least one row: a full buffer is flushed on the add that fills it.
            batch = intervals[start:start + self.chunk_events - self._buffered]
            start += len(batch)
            self._buffer.add_events(category, batch, worker, phase)
            self.total_events += len(batch)
            end_us = max(map(itemgetter(2), batch))
            if end_us > self.max_end_us:
                self.max_end_us = end_us
            self._after_add(len(batch))

    def add_api_call(self, api_name: str, start_us: float, end_us: float, worker: str,
                     phase: str, marker_kinds: Sequence[str]) -> None:
        """Append one CUDA API call's event row, then one marker row per kind at its end.

        When a flush falls between the rows, they are appended one at a time,
        so chunk boundaries are those of separate adds.
        """
        if self.closed:
            self._reject()
        count = 1 + len(marker_kinds)
        if self._buffered + count > self.chunk_events:
            self.add_event_row((CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase, None))
            for kind in marker_kinds:
                self.add_marker_row((kind, end_us, api_name, worker, phase))
            return
        self._buffer.add_api_call(CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase,
                                  marker_kinds)
        self.total_events += 1
        self.total_markers += count - 1
        if end_us > self.max_end_us:
            self.max_end_us = end_us
        self._after_add(count)

    def _reject(self) -> None:
        raise RuntimeError(f"shard for worker {self.worker!r} is closed")

    def _after_add(self, count: int = 1) -> None:
        self._buffered = buffered = self._buffered + count
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered
        if buffered >= self.chunk_events:
            self.flush()

    # ----------------------------------------------------------------- flush
    def flush(self) -> Optional[ChunkMeta]:
        """Write the buffered records as one chunk; no-op on an empty buffer."""
        if self._buffered == 0:
            return None
        name = chunk_filename(self.worker, self.seq)
        columns = self._buffer.columns()
        (self.directory / name).write_bytes(columns.encode())
        meta = columns.meta(name, self.worker, self.seq)
        self.seq += 1
        self.chunks.append(meta)
        self._buffer = ChunkBuffer()
        self._buffered = 0
        if self._on_chunk is not None:
            self._on_chunk(meta)
        return meta

    def close(self) -> List[ChunkMeta]:
        """Flush the remaining buffer and seal the shard."""
        if not self.closed:
            self.flush()
            self.closed = True
        return self.chunks


class StreamingTraceWriter:
    """A TraceDB store being written: many worker shards, one merged index."""

    def __init__(
        self,
        directory: str,
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunk_events = chunk_events
        self.closed = False
        self._open_shards: Dict[str, ShardWriter] = {}
        self._metas: Dict[str, List[ChunkMeta]] = {}
        self._metadata: Dict[str, Dict[str, object]] = {}
        self._next_seq: Dict[str, int] = {}
        self._shard_peaks: Dict[str, int] = {}

    # ---------------------------------------------------------------- shards
    def shard(self, worker: str) -> ShardWriter:
        """The open shard for ``worker`` (created, or reopened after a close)."""
        if self.closed:
            raise RuntimeError("trace store writer is closed")
        existing = self._open_shards.get(worker)
        if existing is not None:
            return existing
        metas = self._metas.setdefault(worker, [])
        shard = ShardWriter(
            self.directory,
            worker,
            chunk_events=self.chunk_events,
            start_seq=self._next_seq.get(worker, 0),
            on_chunk=metas.append,
        )
        self._open_shards[worker] = shard
        return shard

    def write_trace(self, worker: str, trace: EventTrace) -> None:
        """Write an in-memory trace as ``worker``'s next chunks and index it.

        The one path from a finished :class:`EventTrace` to a store; calling
        it again for the same worker appends further chunks.
        """
        self.shard(worker).add_records(trace)
        self.close_shard(worker, metadata=dict(trace.metadata))

    def set_metadata(self, worker: str, metadata: Dict[str, object]) -> None:
        self._metadata[worker] = dict(metadata)

    def close_shard(self, worker: str, *, metadata: Optional[Dict[str, object]] = None) -> None:
        """Seal one worker's shard and merge it into the on-disk index."""
        shard = self._open_shards.pop(worker, None)
        if shard is not None:
            shard.close()
            self._next_seq[worker] = shard.seq
            self._note_peak(shard)
        self._metas.setdefault(worker, [])
        if metadata is not None:
            self.set_metadata(worker, metadata)
        self.write_index()

    # ----------------------------------------------------------------- index
    def write_index(self) -> None:
        """Merge this writer's shards into the store index on disk."""
        try:
            workers = read_index(self.directory)
        except FileNotFoundError:
            workers = {}
        for worker, metas in self._metas.items():
            workers[worker] = WorkerEntry(chunks=list(metas),
                                          metadata=dict(self._metadata.get(worker, {})))
        write_index(self.directory, workers)

    def close(self) -> None:
        """Seal every open shard and write the final index."""
        if self.closed:
            return
        for worker in list(self._open_shards):
            shard = self._open_shards.pop(worker)
            shard.close()
            self._next_seq[worker] = shard.seq
            self._note_peak(shard)
            self._metas.setdefault(worker, [])
        self.write_index()
        self.closed = True

    # ------------------------------------------------------------ accounting
    def bytes_written(self) -> int:
        """Total size of this writer's chunk files on disk."""
        total = 0
        for metas in self._metas.values():
            for meta in metas:
                path = self.directory / meta.file
                if path.exists():
                    total += path.stat().st_size
        return total

    def peak_buffered_records(self) -> int:
        """Largest number of records any shard ever held in memory."""
        peaks = [shard.peak_buffered for shard in self._open_shards.values()]
        peaks.extend(self._shard_peaks.values())
        return max(peaks, default=0)

    def _note_peak(self, shard: ShardWriter) -> None:
        if shard.peak_buffered > self._shard_peaks.get(shard.worker, 0):
            self._shard_peaks[shard.worker] = shard.peak_buffered


class SpillingEventTrace(EventTrace):
    """An :class:`EventTrace` facade that spills records into a shard.

    Used by the profiler in streaming mode: the in-memory lists stay empty —
    every record goes straight into the shard's bounded buffer — while the
    metadata dict behaves as usual and is persisted when the shard closes.
    """

    def __init__(self, shard: ShardWriter, *, metadata: Optional[Dict[str, object]] = None) -> None:
        super().__init__(metadata=dict(metadata) if metadata else {})
        self._shard = shard

    def add_event(self, event: Event) -> None:
        if event.end_us < event.start_us:
            raise ValueError(f"event ends before it starts: {event}")
        if event.category == CATEGORY_OPERATION:
            self._shard.add_operation(event)
        else:
            self._shard.add_event(event)

    def add_marker(self, marker: OverheadMarker) -> None:
        self._shard.add_marker(marker)

    def add_interval(self, category: str, name: str, start_us: float, end_us: float,
                     worker: str, phase: str) -> None:
        if end_us < start_us:
            raise ValueError("event ends before it starts: "
                             f"{Event(category, name, start_us, end_us, worker, phase)}")
        row = (category, name, start_us, end_us, worker, phase, None)
        if category == CATEGORY_OPERATION:
            self._shard.add_operation_row(row)
        else:
            self._shard.add_event_row(row)

    def add_marker_at(self, kind: str, time_us: float, api_name: Optional[str],
                      worker: str, phase: str) -> None:
        self._shard.add_marker_row((kind, time_us, api_name, worker, phase))

    def add_api_call(self, api_name: str, start_us: float, end_us: float, worker: str,
                     phase: str, marker_kinds: Sequence[str]) -> None:
        if end_us < start_us:
            raise ValueError("event ends before it starts: "
                             f"{Event(CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase)}")
        self._shard.add_api_call(api_name, start_us, end_us, worker, phase, marker_kinds)

    def add_intervals(self, category: str, intervals: Iterable[Tuple[str, float, float]],
                      worker: str, phase: str) -> None:
        if category == CATEGORY_OPERATION:
            super().add_intervals(category, intervals, worker, phase)
            return
        intervals = list(intervals)
        for name, start_us, end_us in intervals:
            if end_us < start_us:
                raise ValueError("event ends before it starts: "
                                 f"{Event(category, name, start_us, end_us, worker, phase)}")
        self._shard.add_events(category, intervals, worker, phase)

    # Counting queries reflect everything spilled so far; the record lists
    # themselves are on disk — query them through :class:`~repro.tracedb.TraceDB`.
    def total_events(self) -> int:
        return self._shard.total_events + self._shard.total_operations

    def span_us(self) -> float:
        return self._shard.max_end_us

    @property
    def shard(self) -> ShardWriter:
        return self._shard
