"""The column read side against the per-record loops it replaced.

Overhead attribution, the total overhead, the transition counts and the
overlap sweep run on column arrays (:mod:`repro.profiler.columns`).  The
original loops over record objects are kept in
``tests/oracles/correction_loop.py`` and ``tests/oracles/overlap_loop.py``;
on random traces (built as objects in ``tests/oracles/event_trace.py`` and
passed through the profiler's sink into columns) both must give the same
keys in the same order with the same float bits, for an in-memory trace and
for the same records read back from a multi-chunk store by ``analyze_db``.
"""

from __future__ import annotations

import gc
import weakref
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.correction_loop import (
    OperationLocator as LoopLocator,
    overhead_by_operation_category_loop,
    overhead_for_marker_loop,
    total_overhead_loop,
    transition_counts_loop,
)
from oracles.event_trace import EventTrace, resolved
from oracles.overlap_loop import compute_overlap_loop
from repro.profiler import WorkloadAnalysis, analyze, analyze_db
from repro.profiler.calibration import CalibrationResult
from repro.profiler.correction import OperationLocator, overhead_by_operation_category
from repro.profiler.events import (
    CATEGORY_BACKEND,
    CATEGORY_CUDA_API,
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CATEGORY_PYTHON,
    CATEGORY_SIMULATOR,
    OVERHEAD_KINDS,
    Event,
    OverheadMarker,
)
from repro.profiler.overlap import OverlapResult, compute_overlap
from repro.tracedb import StreamingTraceWriter, TraceDB

WORKERS = ("w0", "w1", "w2")
CATEGORIES = (CATEGORY_PYTHON, CATEGORY_SIMULATOR, CATEGORY_BACKEND, CATEGORY_CUDA_API,
              CATEGORY_GPU)
APIS = ("cudaLaunchKernel", "cudaMemcpyAsync", "cudaStreamSynchronize", None)


def _bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _items(mapping):
    """Key order plus exact float bits, nested dicts included."""
    return [(key, _items(value) if isinstance(value, dict) else _bits(value))
            for key, value in mapping.items()]


def _regions(result):
    return [(op, tuple(sorted(cats)), value.hex()) for (op, cats), value in result.regions.items()]


@st.composite
def traces(draw):
    """Multi-worker traces built to hit every tie the locator resolves.

    Times come from a coarse integer grid (shared boundaries, markers
    exactly at an operation's start or end) or are messy floats; operations
    may be zero-length, nested with equal starts or duplicated; markers may
    belong to a worker with no operations, and the CUPTI API of a marker may
    be missing from the calibration table.
    """
    grid = st.integers(0, 40).map(float)
    point = st.one_of(grid, grid, st.floats(0.0, 40.0, allow_nan=False, allow_subnormal=False))
    trace = EventTrace(metadata={"total_time_us": 1000.0} if draw(st.booleans()) else {})
    workers = WORKERS[:draw(st.integers(1, 3))]
    for worker in workers:
        for _ in range(draw(st.integers(0, 8))):
            start = draw(point)
            end = start + draw(st.one_of(st.just(0.0), grid, point))
            trace.add_event(Event(draw(st.sampled_from(CATEGORIES)), "e", start, end,
                                  worker=worker))
        operations = []
        for _ in range(draw(st.integers(0, 6))):
            if operations and draw(st.booleans()):
                # Nested in, tied with or a duplicate of an earlier operation.
                outer = draw(st.sampled_from(operations))
                start = outer.start_us
                end = draw(st.sampled_from([outer.end_us, start,
                                            (start + outer.end_us) / 2]))
            else:
                start = draw(point)
                end = start + draw(st.one_of(st.just(0.0), grid))
            name = draw(st.sampled_from(["op_a", "op_b", "op_c"]))
            operations.append(Event(CATEGORY_OPERATION, name, start, end, worker=worker))
        for operation in operations:
            trace.add_event(operation)
    marker_times = [t for op in trace.operations for t in (op.start_us, op.end_us)]
    marker_worker = st.sampled_from(WORKERS + ("w_idle",))
    for _ in range(draw(st.integers(0, 25))):
        time = draw(st.one_of(point, st.sampled_from(marker_times))
                    if marker_times else point)
        trace.add_marker(OverheadMarker(draw(st.sampled_from(OVERHEAD_KINDS)), time,
                                        api_name=draw(st.sampled_from(APIS)),
                                        worker=draw(marker_worker)))
    return trace


calibrations = st.builds(
    CalibrationResult,
    pyprof_us=st.sampled_from([1.5, 0.0, -0.25, 0.1]),
    annotation_us=st.sampled_from([2.25, 0.0, 0.3]),
    cuda_interception_us=st.sampled_from([0.7, -1.0, 0.1]),
    # cudaStreamSynchronize is never in the table: its markers fall back to
    # the default, which may be non-positive too.
    cupti_per_api_us=st.sampled_from([{}, {"cudaLaunchKernel": 0.2, "cudaMemcpyAsync": 0.0}]),
    details=st.sampled_from([{}, {"cupti_default_us": 0.5}, {"cupti_default_us": -0.5}]),
)


def _store_workers(trace: EventTrace):
    """Every worker with a record, and always ``w0`` (so metadata is stored)."""
    return sorted({m.worker for m in trace.markers} | set(trace.workers()) | {"w0"})


def _store(trace: EventTrace, directory) -> TraceDB:
    """The trace's records written per worker, in small chunks."""
    writer = StreamingTraceWriter(str(directory), chunk_events=7)
    for worker in _store_workers(trace):
        EventTrace(events=[e for e in trace.events if e.worker == worker],
                   operations=[op for op in trace.operations if op.worker == worker],
                   markers=[m for m in trace.markers if m.worker == worker]
                   ).sink(writer.shard(worker))
        writer.close_shard(worker, metadata=dict(trace.metadata))
    writer.close()
    return TraceDB(str(directory))


def _reordered(trace: EventTrace) -> EventTrace:
    """The store's record order: each worker's records in turn."""
    out = EventTrace(metadata=dict(trace.metadata))
    for worker in _store_workers(trace):
        out.events.extend(e for e in trace.events if e.worker == worker)
        out.operations.extend(op for op in trace.operations if op.worker == worker)
        out.markers.extend(m for m in trace.markers if m.worker == worker)
    return out


def _assert_matches_loops(trace, calibration, oracle_trace):
    """Every column result on ``trace`` (a ColumnarTrace) equals the loop on
    ``oracle_trace`` (an EventTrace)."""
    assert _items(overhead_by_operation_category(trace, calibration)) == \
        _items(overhead_by_operation_category_loop(oracle_trace, calibration))
    assert _bits(calibration.total_overhead_us(trace)) == \
        _bits(total_overhead_loop(calibration, oracle_trace))
    by_kind = defaultdict(float)
    for marker in oracle_trace.markers:
        by_kind[marker.kind] += overhead_for_marker_loop(calibration, marker)
    assert _items(calibration.overhead_by_kind_us(trace)) == _items(dict(by_kind))
    assert _regions(compute_overlap(trace)) == _regions(compute_overlap_loop(oracle_trace))
    analysis = WorkloadAnalysis(trace=trace, overlap=OverlapResult())
    assert _items(analysis.transition_counts()) == _items(transition_counts_loop(oracle_trace))


@settings(max_examples=150, deadline=None)
@given(trace=traces(), calibration=calibrations)
def test_columns_match_the_loops_in_memory(trace, calibration):
    _assert_matches_loops(trace.columnar(), calibration, trace)



def test_a_dropped_store_trace_is_freed_without_a_cycle_collection(tmp_path):
    """A trace holds no reference cycle, so dropping it frees its columns at once."""
    trace = EventTrace()
    trace.add_marker(OverheadMarker("annotation", 1.0, worker="w0"))
    db = _store(trace, tmp_path)
    gc.collect()
    gc.disable()
    try:
        stored = db.columnar_trace()
        assert resolved(stored) == resolved(trace.columnar())
        columns = weakref.ref(stored.columns)
        del stored
        assert columns() is None
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(trace=traces(), calibration=calibrations)
def test_columns_match_the_loops_on_a_store(tmp_path_factory, trace, calibration):
    db = _store(trace, tmp_path_factory.mktemp("store"))
    stored = db.columnar_trace()
    oracle = _reordered(trace)
    _assert_matches_loops(stored, calibration, oracle)
    # The store's columns hold the records in the store's order.
    in_memory_trace = oracle.columnar()
    assert (len(stored.events), len(stored.operations), len(stored.markers)) == \
        (len(oracle.events), len(oracle.operations), len(oracle.markers))
    assert resolved(stored) == resolved(in_memory_trace)
    assert stored.columns.workers() == oracle.workers()
    assert stored.span_us() == in_memory_trace.span_us()
    # analyze_db equals analyze of the same records, bit for bit.
    from_db = analyze_db(db, calibration=calibration)
    in_memory = analyze(in_memory_trace, calibration=calibration)
    for method in ("category_breakdown_us", "resource_breakdown_us", "overheads",
                   "transition_counts"):
        assert _items(getattr(from_db, method)()) == _items(getattr(in_memory, method)())
    assert _bits(from_db.total_time_us()) == _bits(in_memory.total_time_us())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_locator_matches_the_heap_sweep(data):
    grid = st.integers(0, 30).map(float)
    operations = []
    for _ in range(data.draw(st.integers(0, 12))):
        if operations and data.draw(st.booleans()):
            start = data.draw(st.sampled_from(operations)).start_us
        else:
            start = data.draw(grid)
        end = start + data.draw(st.one_of(st.just(0.0), grid))
        operations.append(Event(CATEGORY_OPERATION, data.draw(st.sampled_from("abcd")),
                                start, end))
    columns = EventTrace(operations=operations).columnar().columns
    shipped = OperationLocator(columns.strings, columns.operations)
    loop = LoopLocator(operations)
    queries = [t for op in operations for t in (op.start_us, op.end_us, op.start_us - 0.5,
                                                 op.end_us + 0.5)]
    queries += data.draw(st.lists(st.floats(-5.0, 70.0, allow_nan=False), max_size=20))
    for time in queries:
        assert shipped.locate(time) == loop.locate(time), time
    times = np.array(queries, dtype=np.float64)
    assert len(shipped.locate_ids(times)) == len(queries)


def test_markers_at_boundaries_and_without_operations():
    """Deterministic cover: a marker exactly at an inner operation's start and
    end, one between nested ops with equal starts, one on a worker that has
    no operations, and a CUPTI API the calibration table lacks."""
    trace = EventTrace()
    trace.add_event(Event(CATEGORY_OPERATION, "outer", 0.0, 10.0))
    trace.add_event(Event(CATEGORY_OPERATION, "tied", 0.0, 5.0))
    trace.add_event(Event(CATEGORY_OPERATION, "point", 7.0, 7.0))
    trace.add_event(Event(CATEGORY_PYTHON, "python", 0.0, 10.0))
    trace.add_event(Event(CATEGORY_PYTHON, "python", 0.0, 10.0, worker="idle"))
    for time, kind, api, worker in ((0.0, "annotation", None, "worker_0"),
                                    (5.0, "annotation", None, "worker_0"),
                                    (7.0, "cupti", "cudaEventRecord", "worker_0"),
                                    (10.0, "cuda_interception", None, "worker_0"),
                                    (10.5, "pyprof_interception", None, "worker_0"),
                                    (3.0, "annotation", None, "idle")):
        trace.add_marker(OverheadMarker(kind, time, api_name=api, worker=worker))
    calibration = CalibrationResult(pyprof_us=1.0, annotation_us=2.0,
                                    cuda_interception_us=3.0,
                                    cupti_per_api_us={"cudaLaunchKernel": 9.0},
                                    details={"cupti_default_us": 0.25})
    overheads = overhead_by_operation_category(trace.columnar(), calibration)
    assert overheads == overhead_by_operation_category_loop(trace, calibration)
    assert list(overheads.items()) == [
        (("tied", CATEGORY_PYTHON), 4.0),        # 0.0 and 5.0: "tied" is later in trace order
        (("point", CATEGORY_CUDA_API), 0.25),    # the zero-length op, default CUPTI cost
        (("outer", CATEGORY_CUDA_API), 3.0),     # exactly at the end: closed interval
        (("<untracked>", CATEGORY_PYTHON), 3.0),  # after every op; the idle worker
    ]
    _assert_matches_loops(trace.columnar(), calibration, trace)
