"""Legacy trace storage API, now a thin wrapper over :mod:`repro.tracedb`.

The original tool aggregates trace records in a C++ library and flushes them
to Protobuf files of ~20 MB off the critical path.  Historically this module
implemented a dump-at-end JSON container per chunk; trace storage now lives
in the :mod:`repro.tracedb` subsystem (streaming writes, compressed
columnar chunks, an indexed store with a query engine).  :class:`TraceDumper`
and :class:`TraceReader` keep their old surface for existing callers and
tests: dumps are written in the new store format, and reads transparently
handle both the new format and directories written by older versions of
this module (``rlscope_index.json`` plus plain-JSON chunks).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .events import EventTrace

# Retained for backwards compatibility: the *legacy* index file name.  New
# stores are indexed by ``repro.tracedb.format.INDEX_FILE``.
INDEX_FILE = "rlscope_index.json"
CHUNK_PREFIX = "trace_chunk"


@dataclass
class TraceChunk:
    """One on-disk chunk of trace records."""

    path: Path
    num_events: int
    num_operations: int
    num_markers: int


class TraceDumper:
    """Buffers trace records and flushes them to chunk files.

    Kept as the dump-at-end convenience API; for incremental flushing during
    profiling use ``Profiler(..., streaming=True)`` or
    :class:`repro.tracedb.StreamingTraceWriter` directly.
    """

    def __init__(self, directory: str, *, worker: str = "worker_0", chunk_events: int = 50_000) -> None:
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.directory = Path(directory)
        self.worker = worker
        self.chunk_events = chunk_events
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunks: List[TraceChunk] = []
        self._writer = None  # one StreamingTraceWriter for the dumper's lifetime

    # ------------------------------------------------------------------ dump
    def dump(self, trace: EventTrace) -> List[TraceChunk]:
        """Write the whole trace as one or more chunks plus an index file."""
        from ..tracedb.writer import StreamingTraceWriter

        if self._writer is None:
            self._writer = StreamingTraceWriter(str(self.directory), chunk_events=self.chunk_events)
        writer = self._writer
        shard = writer.shard(self.worker)
        already_written = len(shard.chunks)
        for event in trace.events:
            shard.add_event(event)
        for operation in trace.operations:
            shard.add_operation(operation)
        for marker in trace.markers:
            shard.add_marker(marker)
        shard.flush()
        new_metas = shard.chunks[already_written:]
        writer.set_metadata(self.worker, dict(trace.metadata))
        writer.write_index()
        written = [
            TraceChunk(path=self.directory / meta.file,
                       num_events=meta.num_events or 0,
                       num_operations=meta.num_operations or 0,
                       num_markers=meta.num_markers or 0)
            for meta in new_metas
        ]
        self.chunks.extend(written)
        return written


class TraceReader:
    """Reads traces written by :class:`TraceDumper` or :mod:`repro.tracedb`."""

    def __init__(self, directory: str) -> None:
        from ..tracedb.store import TraceDB

        self.directory = Path(directory)
        self.db = TraceDB(directory)

    def workers(self) -> List[str]:
        return self.db.workers()

    def read_worker(self, worker: str) -> EventTrace:
        return self.db.read_worker(worker)

    def read_all(self) -> Dict[str, EventTrace]:
        return self.db.read_all()

    def iter_chunks(self) -> Iterator[Path]:
        for meta in self.db.chunks():
            yield self.directory / meta.file


def load_trace(directory: str, worker: Optional[str] = None) -> EventTrace:
    """Convenience loader: read one worker's trace (or the only worker)."""
    reader = TraceReader(directory)
    workers = reader.workers()
    if worker is None:
        if len(workers) != 1:
            raise ValueError(f"trace directory contains {len(workers)} workers; specify one of {workers}")
        worker = workers[0]
    return reader.read_worker(worker)
