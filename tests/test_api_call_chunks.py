"""Fused trace appends flush and encode exactly like one record at a time.

The profiler's CUDA hook writes an API call's event and its one or two
overhead markers with one :meth:`ShardWriter.add_api_call`, ``finalize``
writes its GPU events with one :meth:`ShardWriter.add_events`, and a shard
buffers interned ids (:class:`~repro.tracedb.format.ChunkBuffer`) instead of
field rows.  At small ``chunk_events`` a flush falls between an API call's
event and its markers, and inside a batch of GPU events; the streamed store
and the shard's totals must still equal the scalar one-object-per-record
oracle's.  The chunk bytes and index statistics must equal the row-by-row,
column-by-column interning kept in ``tests/oracles/row_chunk.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.row_chunk import ChunkRows, encode_rows, meta_from_rows
from oracles.scalar_cuda_launch import ObjectProfiler, scalar_system
from repro.profiler.api import Profiler
from repro.profiler.events import CATEGORY_CUDA_API, CATEGORY_GPU
from repro.system import System
from repro.tracedb.format import ChunkBuffer
from repro.tracedb.writer import ShardWriter
from test_cuda_launch_oracle import COST_CONFIGS, PROFILER_CONFIGS, random_ops


def _streamed(make_system, make_profiler, *, seed, profiler, chunk_events, ops, store_root):
    """Run one worker's ``ops`` under a streaming profiler; what it leaves behind."""
    system = make_system(seed=seed, config=COST_CONFIGS["default"])
    prof = make_profiler(system, PROFILER_CONFIGS[profiler], trace_dir=str(store_root),
                         streaming=True, chunk_events=chunk_events).attach()
    for _, name, args in ops:
        if name == "cpu_work":
            system.cpu_work(*args)
        elif name == "set_phase":
            prof.set_phase(*args)
        else:
            getattr(system.cuda, name)(*args)
    prof.finalize()
    shard = prof.trace.shard
    return {
        "clock": system.clock.now_us,
        "totals": (shard.total_events, shard.total_operations, shard.total_markers),
        "max_end_us": shard.max_end_us,
        "peak_buffered": shard.peak_buffered,
        "chunks": [meta.to_dict() for meta in shard.chunks],
        "store": {path.name: path.read_bytes() for path in sorted(store_root.iterdir())},
    }


@pytest.mark.parametrize("chunk_events", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("profiler", ["hook+cupti", "hook-only", "full"])
def test_flushes_inside_api_calls_match_scalar_oracle(tmp_path, chunk_events, profiler):
    ops = random_ops(random.Random(chunk_events), 120, 1)
    kwargs = dict(seed=chunk_events, profiler=profiler, chunk_events=chunk_events, ops=ops)
    shipped = _streamed(System.create, Profiler, store_root=tmp_path / "shipped", **kwargs)
    oracle = _streamed(scalar_system, ObjectProfiler, store_root=tmp_path / "oracle", **kwargs)
    for key in shipped:
        assert shipped[key] == oracle[key], key
    assert len(shipped["chunks"]) > 1


def test_closed_shard_rejects_fused_appends_before_counting(tmp_path):
    shard = ShardWriter(tmp_path, "w0", chunk_events=4)
    shard.add_api_call("cudaLaunchKernel", 1.0, 2.0, "w0", "p", ("cuda_interception", "cupti"))
    shard.add_events(CATEGORY_GPU, [("sgemm", 2.0, 5.0)], "w0", "p")
    shard.close()
    state = (shard.total_events, shard.total_operations, shard.total_markers, shard.max_end_us,
             shard.buffered_records, shard.peak_buffered, len(shard.chunks))
    files = sorted(path.name for path in tmp_path.iterdir())
    with pytest.raises(RuntimeError, match="closed"):
        shard.add_api_call("cudaLaunchKernel", 7.0, 9.0, "w0", "p", ("cuda_interception",))
    with pytest.raises(RuntimeError, match="closed"):
        shard.add_events(CATEGORY_GPU, [("sgemm", 9.0, 12.0)], "w0", "p")
    assert (shard.total_events, shard.total_operations, shard.total_markers, shard.max_end_us,
            shard.buffered_records, shard.peak_buffered, len(shard.chunks)) == state
    assert state == (2, 0, 2, 5.0, 0, 4, 1)
    assert sorted(path.name for path in tmp_path.iterdir()) == files


# Small alphabets that overlap across columns, so interning order matters.
_STRINGS = st.sampled_from(["a", "b", "CUDA", "GPU", "p", "w0", "cupti", "None"])
_TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_META = st.none() | st.dictionaries(st.sampled_from(["rows", "share"]),
                                    st.integers(0, 9), min_size=1)
_INTERVAL = st.tuples(_STRINGS, _STRINGS, _TIMES, _TIMES, _STRINGS, _STRINGS, _META)
_MARKER = st.tuples(_STRINGS, _TIMES, st.none() | _STRINGS, _STRINGS, _STRINGS)
_APPEND = st.one_of(
    st.tuples(st.just("event"), _INTERVAL),
    st.tuples(st.just("operation"), _INTERVAL),
    st.tuples(st.just("marker"), _MARKER),
    st.tuples(st.just("api_call"), _STRINGS, _TIMES, _TIMES, _STRINGS, _STRINGS,
              st.lists(_STRINGS, max_size=2).map(tuple)),
    st.tuples(st.just("events"), _STRINGS,
              st.lists(st.tuples(_STRINGS, _TIMES, _TIMES), max_size=4), _STRINGS, _STRINGS),
)


def _append(buffer: ChunkBuffer, rows: ChunkRows, append) -> None:
    kind, *args = append
    if kind == "event":
        buffer.add_event(args[0])
        rows.events.append(args[0])
    elif kind == "operation":
        buffer.add_operation(args[0])
        rows.operations.append(args[0])
    elif kind == "marker":
        buffer.add_marker(args[0])
        rows.markers.append(args[0])
    elif kind == "api_call":
        api_name, start_us, end_us, worker, phase, marker_kinds = args
        buffer.add_api_call(CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase,
                            marker_kinds)
        rows.events.append((CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase, None))
        rows.markers.extend((kind, end_us, api_name, worker, phase) for kind in marker_kinds)
    else:
        category, intervals, worker, phase = args
        buffer.add_events(category, intervals, worker, phase)
        rows.events.extend((category, name, start_us, end_us, worker, phase, None)
                           for name, start_us, end_us in intervals)


@settings(max_examples=200, deadline=None)
@given(st.lists(_APPEND, max_size=25))
def test_buffered_ids_encode_like_rows_interned_per_column(appends):
    buffer, rows = ChunkBuffer(), ChunkRows()
    for append in appends:
        _append(buffer, rows, append)
    columns = buffer.columns()
    assert columns.encode() == encode_rows(rows)
    assert columns.meta("f", "w0", 3) == meta_from_rows("f", "w0", 3, rows)
