"""Benchmark: TraceDB streaming store vs dump-at-end, map-reduce vs single-pass.

Regenerates the scaling argument behind the TraceDB subsystem on a
16-worker Minigo trace (the paper's Figure 8 workload shape):

* write volume — dump-at-end uncompressed JSON vs streaming
  compressed columnar shards;
* peak buffered records — whole trace in memory vs at most one chunk;
* overlap wall time — single-pass over the merged trace vs the
  shard-parallel map-reduce pass (which must stay byte-identical).
"""

import json
import time

from conftest import save_report
from repro.minigo.workers import SelfPlayPool
from repro.profiler import multi_process_summary
from repro.profiler.overlap import compute_overlap
from repro.tracedb import TraceDB, parallel_overlap

#: 16 parallel self-play workers, as in the paper, at reproduction scale.
POOL_KWARGS = dict(
    board_size=5,
    num_simulations=4,
    games_per_worker=1,
    max_moves=10,
    hidden=(32, 32),
    seed=0,
)
NUM_WORKERS = 16
CHUNK_EVENTS = 2_000


def _run_pools(tmp_path):
    """One in-memory pool run and one identically-seeded streaming run."""
    in_memory = SelfPlayPool(NUM_WORKERS, **POOL_KWARGS)
    in_memory.run()
    streaming = SelfPlayPool(NUM_WORKERS, trace_dir=str(tmp_path / "store"),
                             chunk_events=CHUNK_EVENTS, **POOL_KWARGS)
    streaming.run()
    return in_memory, streaming


def test_bench_tracedb_streaming_and_mapreduce(benchmark, tmp_path):
    in_memory, streaming = benchmark.pedantic(lambda: _run_pools(tmp_path),
                                              rounds=1, iterations=1)

    # --- write volume: dump-at-end uncompressed JSON vs compressed shards.
    json_dir = tmp_path / "json_dump"
    json_dir.mkdir()
    json_bytes = 0
    peak_dump_records = 0
    for worker, trace in in_memory.traces().items():
        path = json_dir / f"{worker}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace.to_dict(), handle)
        json_bytes += path.stat().st_size
        peak_dump_records = max(peak_dump_records,
                                trace.total_events() + len(trace.markers))
    stream_bytes = streaming.store.bytes_written()
    peak_stream_records = streaming.store.peak_buffered_records()

    assert stream_bytes < json_bytes, "compressed shards should beat raw JSON"
    assert peak_stream_records <= CHUNK_EVENTS, "streaming must stay within one chunk"
    assert peak_dump_records > CHUNK_EVENTS, "dump-at-end buffers the whole trace"

    # --- overlap: single pass (load + compute) vs shard-parallel map-reduce.
    store_dir = str(streaming.store.directory)
    t0 = time.perf_counter()
    single = compute_overlap(TraceDB(store_dir).to_event_trace())
    single_sec = time.perf_counter() - t0
    timings = {}
    for mode in ("serial", "thread", "process"):
        t0 = time.perf_counter()
        result = parallel_overlap(TraceDB(store_dir), mode=mode)
        timings[mode] = time.perf_counter() - t0
        # The acceptance bar: byte-identical region durations, not approx.
        assert result.regions == single.regions
    db = streaming.tracedb()

    # Streamed store reproduces the in-memory Figure 8 summaries exactly.
    base = multi_process_summary(in_memory.traces())
    from repro.profiler import multi_process_summary_db
    from_db = [s for s in multi_process_summary_db(db)]
    assert [(s.worker, s.total_time_us, s.gpu_time_us) for s in from_db] == \
           [(s.worker, s.total_time_us, s.gpu_time_us) for s in base]

    lines = [
        "TraceDB benchmark: 16-worker Minigo self-play trace",
        f"  events in store:            {db.num_events():,}",
        f"  chunks:                     {len(db.chunks())} (chunk_events={CHUNK_EVENTS:,})",
        f"  dump-at-end JSON:           {json_bytes:,} bytes, peak {peak_dump_records:,} records buffered",
        f"  streaming columnar chunks:  {stream_bytes:,} bytes, peak {peak_stream_records:,} records buffered",
        f"  compression ratio:          {json_bytes / max(stream_bytes, 1):.1f}x",
        f"  overlap single-pass:        {single_sec * 1e3:8.1f} ms",
    ]
    for mode, sec in timings.items():
        lines.append(f"  overlap map-reduce ({mode:7s}): {sec * 1e3:8.1f} ms (byte-identical)")
    report = "\n".join(lines)
    print()
    print(report)
    save_report("tracedb_streaming", report)
