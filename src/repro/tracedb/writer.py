"""Trace writing: the profiler's per-worker row sink, shards and one store.

Every record the profiler makes goes into one :class:`ShardWriter` as a
field row: an interval as ``(category, name, start_us, end_us, worker,
phase, metadata)``, a marker as ``(kind, time_us, api_name, worker,
phase)``, or, on the profiler's hot paths, one CUDA API call's fields
(:meth:`ShardWriter.add_api_call`) or a batch of same-category events
(:meth:`ShardWriter.add_events`).  A shard buffers columns, not record
objects: a :class:`~repro.tracedb.format.ChunkBuffer` interns each row's
strings as it arrives and keeps ids and times in flat lists, and the chunk
encoder turns those into the ``.tdbc`` columns.  However records arrive,
chunk boundaries fall after the same records as if each had been added on
its own.

Only the flush policy differs between the profiler's three modes:

* in memory (no store), the buffer is never flushed, and ``finalize`` reads
  it back as columns (:meth:`ShardWriter.columnar_trace`);
* dumped (a store, ``spill=False``), the whole buffer is written when the
  shard closes, cut every ``chunk_events`` records: every event, then every
  operation, then every marker;
* streamed (``spill=True``), a chunk is written each time the buffer holds
  ``chunk_events`` records, so at most one chunk is ever held in memory per
  worker, mirroring the paper's off-critical-path trace aggregation.

Writing performs only host-side I/O — it never touches the virtual clock,
so a store adds zero virtual time to the profiled workload.

Several profilers (e.g. the 16 Minigo self-play workers plus the trainer
and evaluator) can share one :class:`StreamingTraceWriter`, each writing its
own shard into the same store directory; the index is merged incrementally
as shards close, and also survives separate writer instances pointed at the
same directory (read-modify-write index merging).
"""

from __future__ import annotations

import sys
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..profiler.columns import ColumnarTrace
from ..profiler.events import CATEGORY_CUDA_API
from .format import (
    DEFAULT_CHUNK_EVENTS,
    ChunkBuffer,
    ChunkMeta,
    IntervalRow,
    MarkerRow,
    WorkerEntry,
    chunk_filename,
    read_index,
    write_index,
)


class ShardWriter:
    """One worker's shard: the profiler's row sink, a buffer written as chunks.

    The flush policy is the only thing that differs between the profiler's
    modes.  A spilling shard (``spill=True``) flushes a chunk each time its
    buffer holds ``chunk_events`` records, so at most one chunk is ever
    buffered; otherwise the buffer keeps every record until :meth:`flush` (at
    :meth:`close`), which cuts them into ``chunk_events`` chunks, or is only
    read back with :meth:`columnar_trace` (``directory=None``: no store).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]],
        worker: str,
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        spill: bool = True,
        start_seq: int = 0,
        on_chunk: Optional[Callable[[ChunkMeta], None]] = None,
    ) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.directory = None if directory is None else Path(directory)
        self.worker = worker
        self.chunk_events = chunk_events
        self.spill = spill
        self._flush_at = chunk_events if spill else sys.maxsize
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

    # A row is rejected (closed shard, or an interval ending before it
    # starts) before it touches the buffer or the totals.
    def add_event(self, row: IntervalRow) -> None:
        self._check(row)
        self._buffer.add_event(row)
        self.total_events += 1
        if row[3] > self.max_end_us:
            self.max_end_us = row[3]
        self._after_add()

    def add_operation(self, row: IntervalRow) -> None:
        self._check(row)
        self._buffer.add_operation(row)
        self.total_operations += 1
        if row[3] > self.max_end_us:
            self.max_end_us = row[3]
        self._after_add()

    def add_marker(self, row: MarkerRow) -> None:
        if self.closed:
            self._reject()
        self._buffer.add_marker(row)
        self.total_markers += 1
        self._after_add()

    def add_events(self, category: str, intervals: Sequence[Tuple[str, float, float]],
                   worker: str, phase: str) -> None:
        """Append ``(name, start_us, end_us)`` stack events that share the other fields."""
        for name, start_us, end_us in intervals:
            self._check((category, name, start_us, end_us, worker, phase, None))
        start = 0
        while start < len(intervals):
            # Room is at least one row: a full buffer is flushed on the add that fills it.
            batch = intervals[start:start + self._flush_at - self._buffered]
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
        row = (CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase, None)
        self._check(row)
        count = 1 + len(marker_kinds)
        if self._buffered + count > self._flush_at:
            self.add_event(row)
            for kind in marker_kinds:
                self.add_marker((kind, end_us, api_name, worker, phase))
            return
        self._buffer.add_api_call(CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase,
                                  marker_kinds)
        self.total_events += 1
        self.total_markers += count - 1
        if end_us > self.max_end_us:
            self.max_end_us = end_us
        self._after_add(count)

    def _check(self, row: IntervalRow) -> None:
        if self.closed:
            self._reject()
        if row[3] < row[2]:
            raise ValueError(f"event ends before it starts: {row}")

    def _reject(self) -> None:
        raise RuntimeError(f"shard for worker {self.worker!r} is closed")

    def _after_add(self, count: int = 1) -> None:
        self._buffered = buffered = self._buffered + count
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered
        if buffered >= self._flush_at:
            self.flush()

    # ------------------------------------------------------------------ read
    def columnar_trace(self, metadata: Dict[str, object]) -> ColumnarTrace:
        """The buffered records as an in-memory trace with ``metadata``."""
        return ColumnarTrace(self._buffer.columns().trace_columns(), metadata)

    # ----------------------------------------------------------------- flush
    def flush(self) -> List[ChunkMeta]:
        """Write the buffered records as chunks of at most ``chunk_events``
        records: every event, then every operation, then every marker."""
        buffer, total, size = self._buffer, self._buffered, self.chunk_events
        if total == 0:
            return []
        parts = [buffer] if total <= size else [
            buffer.cut(start, start + size) for start in range(0, total, size)]
        self._buffer = ChunkBuffer()
        self._buffered = 0
        return [self._write(part) for part in parts]

    def _write(self, buffer: ChunkBuffer) -> ChunkMeta:
        name = chunk_filename(self.worker, self.seq)
        columns = buffer.columns()
        (self.directory / name).write_bytes(columns.encode())
        meta = columns.meta(name, self.worker, self.seq)
        self.seq += 1
        self.chunks.append(meta)
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
    def shard(self, worker: str, *, spill: bool = True) -> ShardWriter:
        """The open shard for ``worker`` (created, or reopened after a close).

        ``spill`` is a new shard's flush policy (see :class:`ShardWriter`).
        """
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
            spill=spill,
            start_seq=self._next_seq.get(worker, 0),
            on_chunk=metas.append,
        )
        self._open_shards[worker] = shard
        return shard

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
