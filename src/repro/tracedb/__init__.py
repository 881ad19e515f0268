"""TraceDB: streaming sharded trace store plus a parallel analysis engine.

The paper's profiler aggregates trace records off the critical path and
analyzes them offline.  This package is the reproduction's scalable version
of that pipeline:

* :class:`StreamingTraceWriter` / :class:`ShardWriter` — incremental,
  bounded-memory trace writing: events are buffered per worker shard and
  flushed as compressed columnar chunks *during* profiling instead of one
  dump-at-end.  Flushes never touch the virtual clock, so streaming adds
  zero virtual time (the flush happens off the critical path, as in the
  original tool).
* :mod:`repro.tracedb.format` — the on-disk format: a chunk interns its
  strings once and stores records as NumPy columns in one zlib stream, so
  encoding and decoding work column by column, not record by record.
* :class:`ChunkMeta` — per-chunk index entries recording time ranges,
  phases, categories and record counts, so queries can skip whole shards.
* :class:`TraceDB` — the query/aggregation engine: lazy chunk loading with
  an LRU cache, filtered scans (worker / phase / category / time window)
  and whole-store materialisation for legacy consumers.
* :func:`parallel_overlap` / :func:`map_shards` — map-reduce analysis:
  per-shard :func:`~repro.profiler.overlap.compute_overlap` fanned out via
  :mod:`concurrent.futures`, reduced with
  :meth:`~repro.profiler.overlap.OverlapResult.merge`.  The reduction uses
  exactly the same per-worker grouping as the single-pass algorithm, so the
  results are byte-identical.
* ``repro-trace`` (:mod:`repro.tracedb.cli`) — ``summarize`` / ``query`` /
  ``compact`` commands over a store directory.

This package is the profiler's only trace store: a non-streaming
:class:`~repro.profiler.api.Profiler` with a ``trace_dir`` writes its
in-memory trace through :meth:`StreamingTraceWriter.write_trace` at
finalize.  Stores written by older versions of the code (``tracedb-v1``
JSONL chunks, ``rlscope_index.json`` JSON chunks) still load, read-only.
"""

from .format import (
    DEFAULT_CHUNK_EVENTS,
    INDEX_FILE,
    STORE_FORMAT,
    ChunkMeta,
    ChunkPayload,
)
from .writer import ShardWriter, SpillingEventTrace, StreamingTraceWriter
from .store import TraceDB
from .mapreduce import map_shards, parallel_overlap, parallel_worker_summaries

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "INDEX_FILE",
    "STORE_FORMAT",
    "ChunkMeta",
    "ChunkPayload",
    "ShardWriter",
    "SpillingEventTrace",
    "StreamingTraceWriter",
    "TraceDB",
    "map_shards",
    "parallel_overlap",
    "parallel_worker_summaries",
]
