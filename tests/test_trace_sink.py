"""The profiler's one trace sink, in its three modes, on one seeded TD3 run.

Every record goes into one per-worker ``ShardWriter`` as a field row; the
modes differ only in its flush policy: kept in memory, dumped into a store
at finalize, or streamed into a store as the buffer fills.  The same seeded
TD3/HalfCheetah run must leave the same records and the same analysis in
every mode.
"""

from __future__ import annotations

import pickle

import pytest

from oracles.event_trace import resolved
from repro.profiler import analyze, analyze_db
from repro.profiler.api import Profiler, ProfilerConfig
from repro.profiler.calibration import CalibrationResult
from repro.rl import STABLE_BASELINES, FrameworkAdapter, default_config, make_algorithm
from repro.sim import make as make_env
from repro.system import System
from repro.tracedb import TraceDB

STEPS = 72
SEED = 1
#: Small enough that both store modes write several chunks.
CHUNK_EVENTS = 5_000
MODES = ("memory", "dump", "stream")


def _profiler(system: System, mode: str, directory) -> Profiler:
    options = {"memory": {},
               "dump": dict(trace_dir=str(directory)),
               "stream": dict(trace_dir=str(directory), streaming=True)}[mode]
    return Profiler(system, ProfilerConfig.full(), chunk_events=CHUNK_EVENTS, **options)


def _run(mode: str, directory):
    """One seeded TD3/HalfCheetah run profiled in ``mode``."""
    system = System.create(seed=SEED)
    env = make_env("HalfCheetah", system, seed=SEED)
    framework = FrameworkAdapter(system, STABLE_BASELINES)
    profiler = _profiler(system, mode, directory)
    profiler.attach(engine=framework.engine, envs=[env])
    agent = make_algorithm("TD3", env, framework, config=default_config("TD3"),
                           profiler=profiler, seed=SEED)
    agent.train(STEPS)
    return system, profiler, profiler.finalize()


def _analysis(analysis):
    return (analysis.category_breakdown_us(), analysis.category_breakdown_us(corrected=False),
            analysis.resource_breakdown_us(), analysis.transition_counts(),
            analysis.total_time_us(), analysis.total_time_us(corrected=False))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {mode: _run(mode, tmp_path_factory.mktemp(mode)) for mode in MODES}


def test_every_mode_writes_the_same_records(runs):
    system, memory, trace = runs["memory"]
    assert trace is not None and memory.store is None
    stores = {mode: runs[mode][1].open_tracedb() for mode in ("dump", "stream")}
    for mode, db in stores.items():
        assert runs[mode][0].clock.now_us == system.clock.now_us
        stored = db.columnar_trace()
        assert resolved(stored) == resolved(trace), mode
        assert stored.metadata == trace.metadata
        assert len(db.chunks()) > 1
    # The dump finalize reads its buffer back; the stream finalize decodes nothing.
    assert resolved(runs["dump"][2]) == resolved(trace)
    assert runs["stream"][2] is None
    # The dump cuts every event, then every operation, then every marker
    # into chunks of CHUNK_EVENTS records.
    metas = stores["dump"].chunks()
    assert [meta.num_events + meta.num_operations + meta.num_markers
            for meta in metas[:-1]] == [CHUNK_EVENTS] * (len(metas) - 1)
    for earlier, later in zip(metas, metas[1:]):
        assert not (later.num_events and (earlier.num_operations or earlier.num_markers))
        assert not (later.num_operations and earlier.num_markers)
    # Streaming holds at most one chunk; a dump holds the whole trace.
    counts = len(trace.events) + len(trace.operations) + len(trace.markers)
    assert runs["stream"][1].store.peak_buffered_records() <= CHUNK_EVENTS
    assert runs["dump"][1].store.peak_buffered_records() == counts


def test_analyze_equals_analyze_db_in_every_mode(runs):
    system, _, trace = runs["memory"]
    calibration = CalibrationResult.from_ground_truth(system.cost_model.config)
    expected = _analysis(analyze(trace, calibration=calibration, iterations=STEPS))
    for mode in ("dump", "stream"):
        db = runs[mode][1].open_tracedb()
        assert _analysis(analyze_db(db, calibration=calibration, iterations=STEPS)) == expected


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_rejects_an_interval_ending_before_it_starts(mode, tmp_path):
    profiler = _profiler(System.create(seed=SEED), mode, tmp_path)
    profiler.record_event("Backend", "ok", 1.0, 2.0)
    with pytest.raises(ValueError, match="ends before it starts"):
        profiler.record_event("Backend", "late", 5.0, 4.0)
    with pytest.raises(ValueError, match="ends before it starts"):
        profiler.sink.add_api_call("cudaLaunchKernel", 5.0, 4.0, profiler.worker, "p",
                                   ("cuda_interception",))
    sink = profiler.sink
    assert (sink.total_events, sink.total_markers, sink.buffered_records, sink.max_end_us) == \
        (1, 0, 1, 2.0)


def test_an_in_memory_trace_survives_a_pickle_round_trip(runs):
    system, _, trace = runs["memory"]
    copy = pickle.loads(pickle.dumps(trace))
    assert resolved(copy) == resolved(trace)
    assert copy.metadata == trace.metadata
    calibration = CalibrationResult.from_ground_truth(system.cost_model.config)
    assert _analysis(analyze(copy, calibration=calibration, iterations=STEPS)) == \
        _analysis(analyze(trace, calibration=calibration, iterations=STEPS))


def test_the_dumped_store_opens_like_the_streamed_one(runs):
    dumped = runs["dump"][1].open_tracedb()
    streamed = runs["stream"][1].open_tracedb()
    assert isinstance(dumped, TraceDB) and dumped.workers() == streamed.workers()
    assert list(dumped.iter_events()) == list(streamed.iter_events())
    assert list(dumped.iter_operations()) == list(streamed.iter_operations())
    assert list(dumped.iter_markers()) == list(streamed.iter_markers())
