"""Tests for the profiler session: annotations, interception, python-gap tracking."""

import numpy as np
import pytest

from oracles.event_trace import resolved
from repro.backend import GraphEngine, MLP, use_engine
from repro.backend.tensor import Tensor
from repro.profiler import (
    CATEGORY_BACKEND,
    CATEGORY_CUDA_API,
    CATEGORY_GPU,
    CATEGORY_PYTHON,
    CATEGORY_SIMULATOR,
    Profiler,
    ProfilerConfig,
    analyze,
)
from repro.profiler.columns import TraceColumns
from repro.profiler.events import OVERHEAD_ANNOTATION, OVERHEAD_CUDA_INTERCEPTION, OVERHEAD_CUPTI, OVERHEAD_PYPROF
from repro.sim import make
from repro.system import System


def _categories(trace):
    return {category for category, *_ in resolved(trace)[0]}


def _marker_kinds(trace):
    return {kind for kind, *_ in resolved(trace)[2]}


def _profiled_session(config=None, **options):
    system = System.create(seed=0)
    engine = GraphEngine(system)
    env = make("Walker2D", system, seed=0)
    profiler = Profiler(system, config or ProfilerConfig.full(), **options)
    profiler.attach(engine=engine, envs=[env])
    with use_engine(engine):
        net = MLP(env.observation_dim, [32, 32], env.action_dim, out_activation="tanh",
                  rng=np.random.default_rng(0))
        forward = engine.function(lambda obs: net(Tensor(obs)).numpy(), name="policy", num_feeds=1)
        obs = env.reset()
        profiler.set_phase("data_collection")
        for _ in range(4):
            with profiler.operation("inference"):
                action = forward(obs[None, :])[0]
            with profiler.operation("simulation"):
                obs, _, done, _ = env.step(action)
                if done:
                    obs = env.reset()
    return system, profiler


def test_full_profile_collects_all_categories(tmp_path):
    _, profiler = _profiled_session(trace_dir=str(tmp_path))
    trace = profiler.finalize()
    assert {CATEGORY_PYTHON, CATEGORY_BACKEND, CATEGORY_SIMULATOR, CATEGORY_CUDA_API, CATEGORY_GPU} <= _categories(trace)
    assert {name for name, *_ in resolved(trace)[1]} == {"inference", "simulation"}
    # Phases are in the store's records, not in the analysis columns.
    assert all(op.phase == "data_collection" for op in profiler.open_tracedb().iter_operations())
    assert {OVERHEAD_ANNOTATION, OVERHEAD_PYPROF, OVERHEAD_CUDA_INTERCEPTION, OVERHEAD_CUPTI} <= _marker_kinds(trace)


def test_operations_nest_and_scope_correctly():
    _, profiler = _profiled_session()
    trace = profiler.finalize()
    analysis = analyze(trace, iterations=4)
    breakdown = analysis.category_breakdown_us(corrected=False)
    assert CATEGORY_SIMULATOR in breakdown["simulation"]
    assert CATEGORY_SIMULATOR not in breakdown["inference"]
    assert CATEGORY_BACKEND in breakdown["inference"]
    assert breakdown["inference"][CATEGORY_BACKEND] > 0


def test_finalize_is_idempotent_and_records_total_time():
    system, profiler = _profiled_session()
    trace1 = profiler.finalize()
    trace2 = profiler.finalize()
    assert trace1 is trace2
    assert trace1.metadata["total_time_us"] == pytest.approx(system.clock.now_us)


def test_uninstrumented_profiler_records_nothing():
    _, profiler = _profiled_session(ProfilerConfig.uninstrumented())
    trace = profiler.finalize()
    assert (len(trace.events), len(trace.operations), len(trace.markers)) == (0, 0, 0)


def test_partial_config_only_pyprof():
    _, profiler = _profiled_session(ProfilerConfig.only(pyprof=True))
    trace = profiler.finalize()
    categories = _categories(trace)
    assert CATEGORY_BACKEND in categories
    assert CATEGORY_CUDA_API not in categories
    assert CATEGORY_GPU not in categories
    assert _marker_kinds(trace) == {OVERHEAD_PYPROF}
    # No annotations -> no operations and no Python gap events.
    assert len(trace.operations) == 0
    assert CATEGORY_PYTHON not in categories


def test_partial_config_cuda_without_cupti():
    _, profiler = _profiled_session(ProfilerConfig.only(cuda_interception=True))
    trace = profiler.finalize()
    categories = _categories(trace)
    assert CATEGORY_CUDA_API in categories
    assert CATEGORY_GPU not in categories
    assert _marker_kinds(trace) == {OVERHEAD_CUDA_INTERCEPTION}


def test_profiling_inflates_runtime():
    uninstrumented_system, _ = _profiled_session(ProfilerConfig.uninstrumented())
    instrumented_system, _ = _profiled_session(ProfilerConfig.full())
    assert instrumented_system.clock.now_us > uninstrumented_system.clock.now_us


def test_detach_restores_components():
    system, profiler = _profiled_session()
    profiler.finalize()
    assert system.cuda._hooks == []
    assert not system.cuda.cupti.enabled


def test_python_gap_events_only_inside_operations():
    _, profiler = _profiled_session()
    events, operations, _ = resolved(profiler.finalize())
    python_events = [event for event in events if event[0] == CATEGORY_PYTHON]
    assert python_events
    for *_, start, end in python_events:
        assert any(op_start <= start and end <= op_end + 1e-6
                   for *_, op_start, op_end in operations)


def test_merge_traces_combines_workers():
    """Per-worker traces merge by concatenating their columns (as batchsweep does)."""
    _, profiler_a = _profiled_session()
    trace_a = profiler_a.finalize()
    _, profiler_b = _profiled_session(worker="worker_1")
    trace_b = profiler_b.finalize()
    merged = TraceColumns.concat([trace_a.columns, trace_b.columns])
    assert merged.workers() == ["worker_0", "worker_1"]
    assert resolved(merged) == tuple(a + b for a, b in zip(resolved(trace_a), resolved(trace_b)))


def test_event_trace_queries():
    _, profiler = _profiled_session()
    trace = profiler.finalize()
    assert trace.span_us() > 0
    assert trace.columns.workers() == ["worker_0"]
    kinds = [kind for kind, *_ in resolved(trace)[2]]
    assert kinds.count(OVERHEAD_ANNOTATION) == 2 * len(trace.operations)
    assert len(trace.markers) == len(kinds)
