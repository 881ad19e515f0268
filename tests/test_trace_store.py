"""Round trips of in-memory traces through StreamingTraceWriter and TraceDB."""

import json

import pytest

from repro.profiler.events import Event, EventTrace, OverheadMarker
from repro.tracedb import StreamingTraceWriter, TraceDB


def make_trace(worker: str, *, num_events: int = 10, phase: str = "default") -> EventTrace:
    trace = EventTrace(metadata={"worker": worker, "total_time_us": float(num_events * 10)})
    for i in range(num_events):
        trace.add_event(Event(category="Backend", name=f"op_{i}",
                              start_us=10.0 * i, end_us=10.0 * i + 5.0,
                              worker=worker, phase=phase))
    trace.add_event(Event(category="Operation", name="step", start_us=0.0,
                          end_us=10.0 * num_events, worker=worker, phase=phase))
    trace.add_marker(OverheadMarker(kind="annotation", time_us=1.0, worker=worker, phase=phase))
    return trace


# ----------------------------------------------------------------- roundtrip
def test_multi_worker_index_merging(tmp_path):
    """Separate writers for separate workers merge into one store index."""
    trace_a = make_trace("worker_a", num_events=7)
    trace_b = make_trace("worker_b", num_events=5)
    StreamingTraceWriter(str(tmp_path)).write_trace("worker_a", trace_a)
    StreamingTraceWriter(str(tmp_path)).write_trace("worker_b", trace_b)

    db = TraceDB(str(tmp_path))
    assert db.workers() == ["worker_a", "worker_b"]
    loaded = db.read_all()
    assert loaded["worker_a"].total_events() == trace_a.total_events()
    assert loaded["worker_b"].total_events() == trace_b.total_events()
    assert loaded["worker_b"].metadata["worker"] == "worker_b"
    # The second write must not clobber the first worker's entry.
    assert len(loaded["worker_a"].markers) == 1


def test_empty_trace_roundtrip(tmp_path):
    """Writing an empty trace still registers the worker in the index."""
    StreamingTraceWriter(str(tmp_path)).write_trace(
        "worker_0", EventTrace(metadata={"worker": "worker_0"}))
    db = TraceDB(str(tmp_path))
    assert db.chunks() == []
    assert db.workers() == ["worker_0"]
    loaded = db.read_worker("worker_0")
    assert loaded.total_events() == 0
    assert loaded.markers == []
    assert loaded.metadata["worker"] == "worker_0"


def test_chunk_boundary_splits(tmp_path):
    """chunk_events smaller than the record count produces multiple chunks."""
    trace = make_trace("worker_0", num_events=25)
    StreamingTraceWriter(str(tmp_path), chunk_events=8).write_trace("worker_0", trace)
    db = TraceDB(str(tmp_path))
    chunks = db.chunks()
    assert len(chunks) > 1
    # Record counts across chunks add up to the full trace.
    assert sum(c.num_events for c in chunks) == len(trace.events)
    assert sum(c.num_operations for c in chunks) == len(trace.operations)
    assert sum(c.num_markers for c in chunks) == len(trace.markers)
    loaded = db.read_worker("worker_0")
    assert loaded.total_events() == trace.total_events()
    assert sorted(e.name for e in loaded.events) == sorted(e.name for e in trace.events)


def test_repeat_dump_appends_chunks(tmp_path):
    """A writer reused for the same worker keeps earlier chunks readable."""
    writer = StreamingTraceWriter(str(tmp_path), chunk_events=100)
    writer.write_trace("worker_0", make_trace("worker_0", num_events=4))
    writer.write_trace("worker_0", make_trace("worker_0", num_events=6))
    db = TraceDB(str(tmp_path))
    assert [meta.seq for meta in db.chunks("worker_0")] == [0, 1]
    # 4 + 6 backend events + 2 operation events.
    assert db.read_worker("worker_0").total_events() == 12


# -------------------------------------------------------------------- legacy
def test_legacy_store_still_loads(tmp_path):
    """Directories written by the old JSON dump-at-end format still load."""
    trace = make_trace("worker_0", num_events=6)
    chunk_name = "trace_chunk_worker_0_00000.json"
    payload = {
        "worker": "worker_0",
        "events": [e.to_dict() for e in trace.events],
        "operations": [op.to_dict() for op in trace.operations],
        "markers": [m.to_dict() for m in trace.markers],
    }
    (tmp_path / chunk_name).write_text(json.dumps(payload), encoding="utf-8")
    (tmp_path / "rlscope_index.json").write_text(json.dumps({
        "workers": {"worker_0": {"chunks": [chunk_name], "metadata": dict(trace.metadata)}},
    }), encoding="utf-8")

    db = TraceDB(str(tmp_path))
    loaded = db.read_worker("worker_0")
    assert loaded.total_events() == trace.total_events()
    assert len(loaded.markers) == len(trace.markers)
    assert loaded.metadata["worker"] == "worker_0"
    # Legacy chunks have no index statistics, so queries scan them.
    assert all(meta.legacy for meta in db.chunks())
    assert db.count_events(category="Backend") == 6


def test_reader_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        TraceDB(str(tmp_path / "does_not_exist"))


def test_dumper_validates_chunk_size(tmp_path):
    with pytest.raises(ValueError):
        StreamingTraceWriter(str(tmp_path), chunk_events=0)
