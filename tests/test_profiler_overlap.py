"""Tests for the cross-stack event overlap computation (Section 3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.event_trace import EventTrace
from oracles.overlap_loop import accumulate_columns_loop
from repro.profiler.events import (
    CATEGORY_BACKEND,
    CATEGORY_CUDA_API,
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CATEGORY_PYTHON,
    CATEGORY_SIMULATOR,
    Event,
)
from repro.profiler.overlap import (
    RESOURCE_CPU,
    RESOURCE_CPU_GPU,
    RESOURCE_GPU,
    UNTRACKED,
    compute_overlap,
)


def _event(category, start, end, name=None, worker="worker_0"):
    return Event(category=category, name=name or category.lower(), start_us=start, end_us=end, worker=worker)


def paper_figure3_trace() -> EventTrace:
    """The worked example of Figure 3: nested operations with CPU and GPU events.

    mcts_tree_search spans [0, 4000); expand_leaf is nested in [1250, 3800).
    CPU is Python during tree search, Backend during expand_leaf; a GPU kernel
    overlaps part of expand_leaf.
    """
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_OPERATION, 0.0, 4000.0, "mcts_tree_search"))
    trace.add_event(_event(CATEGORY_OPERATION, 1250.0, 3800.0, "expand_leaf"))
    trace.add_event(_event(CATEGORY_PYTHON, 0.0, 1250.0))
    trace.add_event(_event(CATEGORY_BACKEND, 1250.0, 3800.0))
    trace.add_event(_event(CATEGORY_GPU, 2100.0, 3800.0, "sgemm"))
    trace.add_event(_event(CATEGORY_PYTHON, 3800.0, 4000.0))
    return trace


def test_figure3_example_scoping():
    overlap = compute_overlap(paper_figure3_trace().columnar())
    breakdown = overlap.full_breakdown()
    # Pure-Python time belongs to the outer operation.
    assert breakdown[("mcts_tree_search", CATEGORY_PYTHON, RESOURCE_CPU)] == pytest.approx(1250.0 + 200.0)
    # Backend-only and Backend+GPU time belongs to the nested operation.
    assert breakdown[("expand_leaf", CATEGORY_BACKEND, RESOURCE_CPU)] == pytest.approx(850.0)
    assert breakdown[("expand_leaf", CATEGORY_BACKEND, RESOURCE_CPU_GPU)] == pytest.approx(1700.0)
    # Total tracked time equals the outer operation's span.
    assert overlap.total_us() == pytest.approx(4000.0)


def test_gpu_time_and_category_times():
    overlap = compute_overlap(paper_figure3_trace().columnar())
    assert overlap.gpu_time_us() == pytest.approx(1700.0)
    assert overlap.category_time_us(CATEGORY_PYTHON) == pytest.approx(1450.0)
    assert overlap.category_time_us(CATEGORY_BACKEND) == pytest.approx(2550.0)
    assert overlap.resource_time_us(RESOURCE_CPU_GPU) == pytest.approx(1700.0)
    assert overlap.operations() == ["expand_leaf", "mcts_tree_search"]


def test_cuda_priority_over_backend():
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_OPERATION, 0, 100, "backpropagation"))
    trace.add_event(_event(CATEGORY_BACKEND, 0, 100))
    trace.add_event(_event(CATEGORY_CUDA_API, 20, 50))
    breakdown = compute_overlap(trace.columnar()).category_breakdown()
    assert breakdown["backpropagation"][CATEGORY_CUDA_API] == pytest.approx(30.0)
    assert breakdown["backpropagation"][CATEGORY_BACKEND] == pytest.approx(70.0)


def test_gpu_only_region_labelled_gpu():
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_OPERATION, 0, 100, "inference"))
    trace.add_event(_event(CATEGORY_BACKEND, 0, 40))
    trace.add_event(_event(CATEGORY_GPU, 60, 90))
    breakdown = compute_overlap(trace.columnar()).category_breakdown()
    assert breakdown["inference"][CATEGORY_GPU] == pytest.approx(30.0)
    resources = compute_overlap(trace.columnar()).resource_breakdown()
    assert resources["inference"][RESOURCE_GPU] == pytest.approx(30.0)
    assert resources["inference"][RESOURCE_CPU] == pytest.approx(40.0)


def test_events_outside_operations_are_untracked():
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_SIMULATOR, 0, 50))
    trace.add_event(_event(CATEGORY_OPERATION, 100, 200, "simulation"))
    trace.add_event(_event(CATEGORY_SIMULATOR, 100, 200))
    overlap = compute_overlap(trace.columnar())
    assert overlap.total_us(include_untracked=False) == pytest.approx(100.0)
    assert overlap.total_us(include_untracked=True) == pytest.approx(150.0)
    assert (UNTRACKED, frozenset({CATEGORY_SIMULATOR})) in overlap.regions


def test_multi_worker_traces_are_independent():
    trace = EventTrace()
    for worker in ("w0", "w1"):
        trace.add_event(_event(CATEGORY_OPERATION, 0, 100, "inference", worker))
        trace.add_event(_event(CATEGORY_BACKEND, 0, 100, None, worker))
    overlap = compute_overlap(trace.columnar())
    # Two workers each contribute 100us of backend time.
    assert overlap.total_us() == pytest.approx(200.0)


def test_empty_trace_gives_empty_result():
    overlap = compute_overlap(EventTrace().columnar())
    assert overlap.regions == {}
    assert overlap.total_us() == 0.0
    assert overlap.gpu_time_us() == 0.0


@st.composite
def cpu_gpu_trace(draw):
    """Random trace: one operation covering everything, random CPU/GPU events inside."""
    op_end = draw(st.floats(min_value=100, max_value=10_000))
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_OPERATION, 0.0, op_end, "op"))
    n_events = draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_events):
        start = draw(st.floats(min_value=0, max_value=op_end - 1))
        duration = draw(st.floats(min_value=0.1, max_value=op_end - start))
        category = draw(st.sampled_from([CATEGORY_PYTHON, CATEGORY_BACKEND, CATEGORY_SIMULATOR,
                                         CATEGORY_CUDA_API, CATEGORY_GPU]))
        trace.add_event(_event(category, start, start + duration))
    return trace


@settings(max_examples=60, deadline=None)
@given(cpu_gpu_trace())
def test_overlap_invariants(trace):
    """Property: regions are a partition of the covered span of the operation."""
    overlap = compute_overlap(trace.columnar())
    total = overlap.total_us()
    op_span = trace.operations[0].end_us - trace.operations[0].start_us
    # Regions never exceed the covering operation's span and are non-negative.
    assert total <= op_span + 1e-6
    assert all(duration >= 0 for duration in overlap.regions.values())
    # The category breakdown and the resource breakdown both re-partition the
    # same regions, so their totals agree.
    cat_total = sum(sum(c.values()) for c in overlap.category_breakdown(include_untracked=True).values())
    res_total = sum(sum(r.values()) for r in overlap.resource_breakdown(include_untracked=True).values())
    assert cat_total == pytest.approx(res_total, rel=1e-9, abs=1e-6)
    assert cat_total == pytest.approx(total, rel=1e-9, abs=1e-6)
    # GPU time is the sum of GPU-involving resource classes.
    assert overlap.gpu_time_us() == pytest.approx(
        overlap.resource_time_us(RESOURCE_GPU) + overlap.resource_time_us(RESOURCE_CPU_GPU),
        rel=1e-9, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(1, 500)), min_size=1, max_size=8))
def test_union_of_single_category_equals_interval_union(intervals):
    """With a single CPU category, total tracked time equals the union of the intervals."""
    trace = EventTrace()
    trace.add_event(_event(CATEGORY_OPERATION, 0.0, 2000.0, "op"))
    merged = []
    for start, duration in intervals:
        end = min(start + duration, 2000.0)
        trace.add_event(_event(CATEGORY_PYTHON, start, end))
        merged.append((start, end))
    merged.sort()
    union = 0.0
    current_start, current_end = None, None
    for start, end in merged:
        if current_start is None:
            current_start, current_end = start, end
        elif start <= current_end:
            current_end = max(current_end, end)
        else:
            union += current_end - current_start
            current_start, current_end = start, end
    if current_start is not None:
        union += current_end - current_start
    overlap = compute_overlap(trace.columnar())
    assert overlap.total_us() == pytest.approx(union, rel=1e-9, abs=1e-6)


# ------------------------------------------------- duplicate identical annotations
def test_duplicate_identical_operations_keep_innermost_attribution(tmp_path):
    """Two identical annotations active at once must not corrupt eviction.

    ``_accumulate_worker`` used to evict finished operations by dataclass
    equality, which can drop the wrong instance when duplicate identical
    annotations (same name/start/end) are active.  Eviction is now by
    identity; single-pass and map-reduce results must agree bit-for-bit.
    """
    from repro.tracedb import StreamingTraceWriter, TraceDB, parallel_overlap
    from repro.tracedb.format import interval_row

    trace = EventTrace()
    workers = ("w0", "w1")
    for worker in workers:
        # Two *distinct instances* with identical fields, nested inside each
        # other, plus a later-starting inner operation.
        trace.operations.append(Event(CATEGORY_OPERATION, "step", 0.0, 100.0, worker=worker))
        trace.operations.append(Event(CATEGORY_OPERATION, "step", 0.0, 100.0, worker=worker))
        trace.operations.append(Event(CATEGORY_OPERATION, "inner", 40.0, 60.0, worker=worker))
        trace.events.append(Event(CATEGORY_PYTHON, "python", 0.0, 100.0, worker=worker))

    single = compute_overlap(trace.columnar())
    python = frozenset({CATEGORY_PYTHON})
    # [0,40) and [60,100) belong to "step", [40,60) to the innermost "inner".
    assert single.regions[("step", python)] == pytest.approx(80.0 * len(workers))
    assert single.regions[("inner", python)] == pytest.approx(20.0 * len(workers))

    writer = StreamingTraceWriter(str(tmp_path))
    for worker in workers:
        shard = writer.shard(worker)
        for op in trace.operations:
            if op.worker == worker:
                shard.add_operation(interval_row(op))
        for event in trace.events:
            if event.worker == worker:
                shard.add_event(interval_row(event))
        writer.close_shard(worker)
    writer.close()
    mapreduce = parallel_overlap(TraceDB(str(tmp_path)))
    assert mapreduce.regions == single.regions  # bit-for-bit, not approx


def test_operation_event_metadata_does_not_change_overlap():
    """Attribution metadata rides on operation events without affecting regions."""
    plain = EventTrace()
    tagged = EventTrace()
    for trace, metadata in ((plain, None), (tagged, {"batch_rows": 16, "rows": 4})):
        trace.add_event(Event(CATEGORY_OPERATION, "expand_leaf", 0.0, 50.0, metadata=metadata))
        trace.add_event(Event(CATEGORY_PYTHON, "python", 0.0, 50.0))
    assert compute_overlap(plain.columnar()).regions == compute_overlap(tagged.columnar()).regions


# ------------------------------------------- vectorized sweep byte-identity
def _regions_bits(result):
    """Key order plus exact float bits — stricter than dict equality."""
    return [(operation, tuple(sorted(categories)), duration.hex())
            for (operation, categories), duration in result.regions.items()]


def _compute_with(vectorized: bool, trace, **kwargs):
    """compute_overlap on the shipped sweep, or with the loop oracle swapped in."""
    from repro.profiler import overlap as overlap_mod

    saved = overlap_mod._accumulate_worker
    if not vectorized:
        overlap_mod._accumulate_worker = accumulate_columns_loop
    try:
        return compute_overlap(trace.columnar(), **kwargs)
    finally:
        overlap_mod._accumulate_worker = saved


@st.composite
def fuzz_traces(draw):
    """Random multi-worker traces: messy floats, ties, zero-length intervals,
    duplicate operations, improper nesting — everything the sweep must survive."""
    trace = EventTrace()
    point = st.one_of(st.floats(0.0, 500.0, allow_nan=False),
                      st.integers(0, 50).map(float))
    categories = st.sampled_from([CATEGORY_PYTHON, CATEGORY_SIMULATOR,
                                  CATEGORY_BACKEND, CATEGORY_CUDA_API, CATEGORY_GPU])
    for worker in draw(st.sampled_from([("w0",), ("w0", "w1")])):
        for _ in range(draw(st.integers(0, 10))):
            start = draw(point)
            end = start + draw(st.one_of(st.just(0.0), st.floats(0.0, 120.0, allow_nan=False)))
            trace.add_event(Event(draw(categories), "e", start, end, worker=worker))
        for _ in range(draw(st.integers(0, 5))):
            start = draw(point)
            end = start + draw(st.floats(0.0, 200.0, allow_nan=False))
            name = draw(st.sampled_from(["op_a", "op_b", "op_c"]))
            trace.add_event(Event(CATEGORY_OPERATION, name, start, end, worker=worker))
    return trace


@settings(max_examples=120, deadline=None)
@given(trace=fuzz_traces())
def test_vectorized_accumulate_is_byte_identical_to_loop(trace):
    loop = _compute_with(False, trace)
    vectorized = _compute_with(True, trace)
    assert _regions_bits(vectorized) == _regions_bits(loop)


@settings(max_examples=60, deadline=None)
@given(trace=fuzz_traces())
def test_vectorized_per_worker_merge_matches_single_pass(trace):
    """Map-reduce equivalence holds under the vectorized sweep too."""
    from repro.profiler.overlap import OverlapResult

    merged = OverlapResult.merge(
        _compute_with(True, trace, workers=[worker]) for worker in trace.workers())
    assert _regions_bits(merged) == _regions_bits(_compute_with(True, trace))


def test_vectorized_handles_nesting_ties_and_duplicate_ops():
    """Deterministic cover of the tricky cases: same-start ops (trace-order
    tie-break), duplicate identical annotations, op-only segments, and
    improperly nested operations."""
    trace = EventTrace()
    trace.add_event(Event(CATEGORY_OPERATION, "outer", 0.0, 100.0))
    trace.add_event(Event(CATEGORY_OPERATION, "tied", 0.0, 50.0))      # same start as outer
    trace.add_event(Event(CATEGORY_OPERATION, "dup", 10.0, 30.0))
    trace.add_event(Event(CATEGORY_OPERATION, "dup", 10.0, 30.0))      # identical duplicate
    trace.add_event(Event(CATEGORY_OPERATION, "straddle", 40.0, 80.0))  # improper nesting
    trace.add_event(Event(CATEGORY_PYTHON, "python", 0.0, 60.0))
    trace.add_event(Event(CATEGORY_GPU, "kernel", 70.0, 90.0))         # gap 60-70: op-only
    loop = _compute_with(False, trace)
    vectorized = _compute_with(True, trace)
    assert _regions_bits(vectorized) == _regions_bits(loop)
    python = frozenset({CATEGORY_PYTHON})
    assert vectorized.regions[("dup", python)] == pytest.approx(20.0)
    # "tied" starts with "outer" but appears later in trace order, so the
    # tie-break (first of equal starts) hands every segment to "outer".
    assert ("tied", python) not in vectorized.regions
    assert vectorized.regions[("outer", python)] == pytest.approx(10.0 + 10.0)
    assert vectorized.regions[("straddle", python)] == pytest.approx(20.0)
    assert vectorized.regions[("straddle", frozenset({CATEGORY_GPU}))] == pytest.approx(10.0)
    assert vectorized.regions[("outer", frozenset({CATEGORY_GPU}))] == pytest.approx(10.0)  # 80-90
