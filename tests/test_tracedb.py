"""TraceDB subsystem tests: streaming writes, filtered queries, map-reduce."""

import warnings

import pytest

from oracles.event_trace import resolved
from repro.minigo.workers import SelfPlayPool, WorkerRun
from repro.minigo.selfplay import SelfPlayResult
from repro.profiler import analyze, analyze_db, multi_process_summary, multi_process_summary_db
from repro.profiler.api import Profiler, ProfilerConfig
from repro.profiler.events import CATEGORY_BACKEND, CATEGORY_GPU, OVERHEAD_ANNOTATION
from repro.profiler.overlap import OverlapResult, compute_overlap
from repro.system import System
from repro.tracedb import StreamingTraceWriter, TraceDB, parallel_overlap
from repro.tracedb.cli import main as trace_main


# ------------------------------------------------------------------ fixtures
def run_profiled_session(system: System, *, trace_dir=None, streaming=False,
                         chunk_events=50_000) -> Profiler:
    """Drive a small annotated workload through a profiler and finalize it."""
    profiler = Profiler(system, ProfilerConfig.full(), trace_dir=trace_dir,
                        streaming=streaming, chunk_events=chunk_events)
    profiler.set_phase("data_collection")
    for _ in range(40):
        with profiler.operation("simulation"):
            profiler.on_c_enter()
            start = system.clock.now_us
            system.clock.advance(100.0)
            profiler.record_event("Simulator", "step", start, system.clock.now_us)
            profiler.on_c_exit()
    profiler.set_phase("sgd_updates")
    for _ in range(20):
        with profiler.operation("backpropagation"):
            profiler.on_c_enter()
            start = system.clock.now_us
            system.clock.advance(50.0)
            profiler.record_event("Backend", "session_run", start, system.clock.now_us)
            profiler.on_c_exit()
    profiler.finalize()
    return profiler


# ---------------------------------------------------------------- streaming
def test_streaming_flush_bounds_buffer_and_costs_zero_virtual_time(tmp_path):
    sys_a = System.create(seed=0)
    prof_a = run_profiled_session(sys_a)
    sys_b = System.create(seed=0)
    prof_b = run_profiled_session(sys_b, trace_dir=str(tmp_path), streaming=True,
                                  chunk_events=32)

    # Zero virtual cost: the streamed run's clock matches the in-memory run.
    assert sys_b.clock.now_us == sys_a.clock.now_us
    # Bounded memory: never more than one chunk of records buffered.
    assert prof_b.store.peak_buffered_records() <= 32
    db = prof_b.open_tracedb()
    assert len(db.chunks()) > 1  # flushed incrementally, not one dump at end
    # The streamed store holds exactly the records the in-memory trace holds.
    trace = db.read_worker(prof_b.worker)
    in_memory = prof_a.finalize()
    assert prof_b.finalize() is None  # nothing is decoded back after streaming
    assert resolved(trace) == resolved(in_memory)
    assert trace.metadata["total_time_us"] == in_memory.metadata["total_time_us"]


def test_streaming_requires_trace_dir():
    with pytest.raises(ValueError):
        Profiler(System.create(seed=0), streaming=True)


def test_in_memory_profiler_dump_honours_chunk_events(tmp_path):
    """Without streaming, finalize writes the trace in ``chunk_events`` chunks too."""
    dumped = run_profiled_session(System.create(seed=0), trace_dir=str(tmp_path / "dump"),
                                  chunk_events=8)
    streamed = run_profiled_session(System.create(seed=0), trace_dir=str(tmp_path / "stream"),
                                    streaming=True, chunk_events=8)
    db = TraceDB(str(tmp_path / "dump"))
    assert len(db.chunks()) == len(streamed.open_tracedb().chunks()) > 1
    assert all(meta.num_events + meta.num_operations + meta.num_markers <= 8
               for meta in db.chunks())
    assert resolved(db.read_worker(dumped.worker)) == resolved(dumped.finalize())
    # A bad chunk size fails at construction, not after the whole run.
    with pytest.raises(ValueError):
        Profiler(System.create(seed=0), trace_dir=str(tmp_path / "bad"), chunk_events=0)


def test_analyze_db_matches_in_memory_analysis(tmp_path):
    sys_a = System.create(seed=0)
    prof_a = run_profiled_session(sys_a)
    sys_b = System.create(seed=0)
    prof_b = run_profiled_session(sys_b, trace_dir=str(tmp_path), streaming=True,
                                  chunk_events=64)
    base = analyze(prof_a.finalize())
    from_db = analyze_db(prof_b.open_tracedb())
    assert from_db.category_breakdown_us(corrected=False) == base.category_breakdown_us(corrected=False)
    assert from_db.transition_counts() == base.transition_counts()


# ----------------------------------------------------------------- querying
@pytest.fixture
def populated_store(tmp_path):
    writer = StreamingTraceWriter(str(tmp_path), chunk_events=4)
    for worker in ("w0", "w1"):
        shard = writer.shard(worker)
        for i in range(8):
            phase = "collect" if i < 4 else "train"
            category = CATEGORY_BACKEND if i % 2 == 0 else CATEGORY_GPU
            shard.add_event((category, f"e{i}", 100.0 * i, 100.0 * i + 50.0, worker, phase,
                             None))
        writer.close_shard(worker, metadata={"worker": worker})
    writer.close()
    return TraceDB(str(tmp_path))


def test_filtered_queries(populated_store):
    db = populated_store
    assert db.workers() == ["w0", "w1"]
    assert db.count_events() == 16
    assert db.count_events(worker="w0") == 8
    assert db.count_events(worker="w0", phase="collect") == 4
    assert db.count_events(category=CATEGORY_GPU) == 8
    assert db.count_events(worker="w1", phase="train", category=CATEGORY_BACKEND) == 2
    # Time-window filter selects overlapping events only.
    window = db.query(worker="w0", start_us=140.0, end_us=260.0)
    assert sorted(e.name for e in window) == ["e1", "e2"]
    # Half-open window semantics: an event ending exactly at start_us is out.
    assert [e.name for e in db.query(worker="w0", start_us=150.0, end_us=260.0)] == ["e2"]
    assert db.query(worker="w0", limit=3) and len(db.query(worker="w0", limit=3)) == 3
    with pytest.raises(KeyError):
        db.count_events(worker="missing")


def test_chunk_skipping_uses_index_statistics(tmp_path):
    writer = StreamingTraceWriter(str(tmp_path), chunk_events=4)
    shard = writer.shard("w0")
    for i in range(16):
        phase = f"phase_{i // 4}"  # each chunk covers exactly one phase
        shard.add_event((CATEGORY_BACKEND, f"e{i}", 100.0 * i, 100.0 * i + 50.0, "w0", phase,
                         None))
    writer.close_shard("w0")
    writer.close()

    db = TraceDB(str(tmp_path), cache_chunks=1)
    assert len(db.chunks()) == 4
    matches = db.query(phase="phase_2")
    assert [e.name for e in matches] == ["e8", "e9", "e10", "e11"]
    assert db.chunks_loaded == 1  # three of the four chunks were skipped

    db2 = TraceDB(str(tmp_path), cache_chunks=1)
    assert db2.query(start_us=0.0, end_us=350.0) and db2.chunks_loaded == 1


# ---------------------------------------------------------------- map-reduce
def test_overlap_merge_associative_and_matches_single_pass(tmp_path):
    writer = StreamingTraceWriter(str(tmp_path))
    for index, worker in enumerate(("w0", "w1", "w2")):
        shard = writer.shard(worker)
        offset = 37.0 * index
        shard.add_operation(("Operation", "step", offset, offset + 500.0, worker, "p", None))
        for i in range(20):
            shard.add_event((CATEGORY_BACKEND, "run", offset + 25.0 * i,
                             offset + 25.0 * i + 13.0, worker, "p", None))
            if i % 3 == 0:
                shard.add_event((CATEGORY_GPU, "kernel", offset + 25.0 * i + 5.0,
                                 offset + 25.0 * i + 20.0, worker, "p", None))
        writer.close_shard(worker)
    writer.close()
    db = TraceDB(str(tmp_path))

    shards = [compute_overlap(db.read_worker(w)) for w in db.workers()]
    merged = OverlapResult.merge(shards)
    left = OverlapResult.merge([OverlapResult.merge(shards[:2]), shards[2]])
    right = OverlapResult.merge([shards[0], OverlapResult.merge(shards[1:])])
    for key, value in merged.regions.items():
        assert left.regions[key] == pytest.approx(value, rel=1e-12)
        assert right.regions[key] == pytest.approx(value, rel=1e-12)

    single = compute_overlap(db.columnar_trace())
    for mode in ("serial", "thread"):
        parallel = parallel_overlap(db, mode=mode)
        # Byte-identical, not merely approximately equal.
        assert parallel.regions == single.regions
        assert parallel.category_breakdown() == single.category_breakdown()


def test_selfplay_pool_streams_per_worker_shards(tmp_path):
    kwargs = dict(board_size=5, num_simulations=2, games_per_worker=1,
                  max_moves=4, hidden=(16, 16), seed=3)
    base_pool = SelfPlayPool(2, **kwargs)
    base_pool.run()
    base_summaries = multi_process_summary(base_pool.traces())

    stream_pool = SelfPlayPool(2, trace_dir=str(tmp_path), **kwargs)
    runs = stream_pool.run()
    assert all(run.trace is None for run in runs)  # traces live in the store
    db = stream_pool.tracedb()
    assert db.workers() == ["selfplay_worker_0", "selfplay_worker_1"]
    db_summaries = multi_process_summary_db(db)
    assert [(s.worker, s.total_time_us, s.cpu_time_us, s.gpu_time_us) for s in db_summaries] == \
           [(s.worker, s.total_time_us, s.cpu_time_us, s.gpu_time_us) for s in base_summaries]
    # A rerun would restart worker clocks at zero and double-count time in
    # the shared shards, so a streaming pool refuses it.
    with pytest.raises(RuntimeError):
        stream_pool.run()


def test_minigo_training_streams_one_store_per_round(tmp_path):
    from repro.minigo import MinigoConfig, MinigoTraining

    cfg = MinigoConfig(num_workers=1, board_size=5, num_simulations=2,
                       games_per_worker=1, max_moves=2, sgd_steps=1,
                       evaluation_games=1, hidden=(8, 8),
                       trace_dir=str(tmp_path))
    training = MinigoTraining(cfg)
    first = training.run_round()
    second = training.run_round()
    assert first.trace_dir == str(tmp_path / "round_000")
    assert second.trace_dir == str(tmp_path / "round_001")
    db_first, db_second = TraceDB(first.trace_dir), TraceDB(second.trace_dir)
    # Every phase streamed into the round's store, and round 2 did not
    # clobber round 1's shards.
    for db in (db_first, db_second):
        assert {"selfplay_worker_0", "trainer", "evaluate_candidate_model"} <= set(db.workers())
        assert db.num_events() > 0


# ----------------------------------------------------------------------- CLI
def test_repro_trace_cli(populated_store, tmp_path, capsys):
    directory = str(populated_store.directory)
    assert trace_main(["summarize", directory, "--overlap"]) == 0
    out = capsys.readouterr().out
    assert "w0" in out and "w1" in out and "map-reduce overlap" in out

    assert trace_main(["query", directory, "--worker", "w0", "--category", "GPU",
                       "--limit", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 2 and all('"GPU"' in l for l in lines)

    assert trace_main(["query", directory, "--phase", "train", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "8"

    out_dir = str(tmp_path / "compacted")
    assert trace_main(["compact", directory, "--out", out_dir, "--chunk-events", "64"]) == 0
    assert "compacted" in capsys.readouterr().out
    compacted = TraceDB(out_dir)
    assert compacted.count_events() == 16
    assert len(compacted.chunks()) == 2  # one merged chunk per worker


def test_query_limit_zero_returns_nothing(populated_store, capsys):
    db = populated_store
    assert db.query(limit=0) == []
    assert len(db.query(limit=1)) == 1
    assert trace_main(["query", str(db.directory), "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("limit", ["-1", "-3"])
def test_query_rejects_a_negative_limit(populated_store, capsys, limit):
    with pytest.raises(SystemExit) as exit_info:
        trace_main(["query", str(populated_store.directory), "--limit", limit])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--limit" in captured.err


# -------------------------------------------------------------- satellites
def test_on_c_exit_warns_once_on_underflow():
    profiler = Profiler(System.create(seed=0), ProfilerConfig.full(), worker="w9")
    with pytest.warns(RuntimeWarning, match="w9"):
        profiler.on_c_exit()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second underflow must stay silent
        profiler.on_c_exit()
    # Balanced usage still works and does not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profiler.on_c_enter()
        profiler.on_c_exit()


def test_closed_shard_rejects_records_without_counting_them(tmp_path):
    writer = StreamingTraceWriter(str(tmp_path))
    shard = writer.shard("w0")
    shard.add_event((CATEGORY_BACKEND, "run", 0.0, 10.0, "w0", "default", None))
    shard.add_operation(("Operation", "step", 0.0, 12.0, "w0", "default", None))
    shard.add_marker((OVERHEAD_ANNOTATION, 1.0, None, "w0", "default"))
    shard.close()
    with pytest.raises(RuntimeError, match="closed"):
        shard.add_event((CATEGORY_BACKEND, "late", 50.0, 99.0, "w0", "default", None))
    with pytest.raises(RuntimeError, match="closed"):
        shard.add_operation(("Operation", "late", 50.0, 99.0, "w0", "default", None))
    with pytest.raises(RuntimeError, match="closed"):
        shard.add_marker((OVERHEAD_ANNOTATION, 99.0, None, "w0", "default"))
    assert (shard.total_events, shard.total_operations, shard.total_markers) == (1, 1, 1)
    assert shard.max_end_us == 12.0 and shard.buffered_records == 0
    assert shard.peak_buffered == 3 and len(shard.chunks) == 1


def test_open_tracedb_after_a_dump_finalize(tmp_path):
    """A profiler that dumps its trace at finalize opens the store it wrote."""
    profiler = run_profiled_session(System.create(seed=0), trace_dir=str(tmp_path))
    assert profiler.store is not None and profiler.store.closed
    db = profiler.open_tracedb()
    assert db.workers() == [profiler.worker]
    assert resolved(db.read_worker(profiler.worker)) == resolved(profiler.finalize())
    with pytest.raises(ValueError, match="no trace store"):
        Profiler(System.create(seed=0)).open_tracedb()


def test_worker_run_system_is_optional():
    run = WorkerRun(worker="w0", result=SelfPlayResult(worker="w0", games=0, moves=0),
                    trace=None, total_time_us=0.0)
    assert run.system is None
