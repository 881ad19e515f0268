"""Round trips of traces dumped through StreamingTraceWriter and read by TraceDB."""

import pytest

from oracles.event_trace import EventTrace, resolved
from repro.profiler.events import Event, OverheadMarker
from repro.tracedb import StreamingTraceWriter, TraceDB


def dump(writer: StreamingTraceWriter, worker: str, trace: EventTrace) -> None:
    """Write ``trace`` as ``worker``'s next chunks at close, as a dumping profiler does."""
    trace.sink(writer.shard(worker, spill=False))
    writer.close_shard(worker, metadata=dict(trace.metadata))


def counts(trace):
    return len(trace.events), len(trace.operations), len(trace.markers)


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
    dump(StreamingTraceWriter(str(tmp_path)), "worker_a", trace_a)
    dump(StreamingTraceWriter(str(tmp_path)), "worker_b", trace_b)

    db = TraceDB(str(tmp_path))
    assert db.workers() == ["worker_a", "worker_b"]
    loaded = {worker: db.read_worker(worker) for worker in db.workers()}
    assert counts(loaded["worker_a"]) == counts(trace_a)
    assert counts(loaded["worker_b"]) == counts(trace_b)
    assert loaded["worker_b"].metadata["worker"] == "worker_b"
    # The second write must not clobber the first worker's entry.
    assert resolved(loaded["worker_a"]) == resolved(trace_a.columnar())


def test_empty_trace_roundtrip(tmp_path):
    """Writing an empty trace still registers the worker in the index."""
    dump(StreamingTraceWriter(str(tmp_path)), "worker_0", EventTrace(metadata={"worker": "worker_0"}))
    db = TraceDB(str(tmp_path))
    assert db.chunks() == []
    assert db.workers() == ["worker_0"]
    loaded = db.read_worker("worker_0")
    assert counts(loaded) == (0, 0, 0)
    assert loaded.metadata["worker"] == "worker_0"


def test_chunk_boundary_splits(tmp_path):
    """chunk_events smaller than the record count produces multiple chunks."""
    trace = make_trace("worker_0", num_events=25)
    dump(StreamingTraceWriter(str(tmp_path), chunk_events=8), "worker_0", trace)
    db = TraceDB(str(tmp_path))
    chunks = db.chunks()
    # 27 records cut every 8: every event, then the operation, then the marker.
    assert [(c.num_events, c.num_operations, c.num_markers) for c in chunks] == \
        [(8, 0, 0), (8, 0, 0), (8, 0, 0), (1, 1, 1)]
    assert [e.name for e in db.iter_events()] == [e.name for e in trace.events]
    assert resolved(db.read_worker("worker_0")) == resolved(trace.columnar())


def test_repeat_dump_appends_chunks(tmp_path):
    """A writer reused for the same worker keeps earlier chunks readable."""
    writer = StreamingTraceWriter(str(tmp_path), chunk_events=100)
    dump(writer, "worker_0", make_trace("worker_0", num_events=4))
    dump(writer, "worker_0", make_trace("worker_0", num_events=6))
    db = TraceDB(str(tmp_path))
    assert [meta.seq for meta in db.chunks("worker_0")] == [0, 1]
    # 4 + 6 backend events + 2 operation events.
    loaded = db.read_worker("worker_0")
    assert len(loaded.events) + len(loaded.operations) == 12


def test_reader_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        TraceDB(str(tmp_path / "does_not_exist"))


def test_dumper_validates_chunk_size(tmp_path):
    with pytest.raises(ValueError):
        StreamingTraceWriter(str(tmp_path), chunk_events=0)
