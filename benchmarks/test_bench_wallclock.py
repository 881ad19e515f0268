"""Benchmark: wall-clock speed of the harness itself (the perf trajectory).

Every previous benchmark measures *virtual-time* quantities — engine calls,
batch sizes, collection spans.  This one times the **Python harness** that
produces those numbers, pinning the speedup of the three optimized hot paths:

* the incremental-group Go engine + the array-of-children MCTS
  (``repro.sim.go`` / ``repro.minigo.mcts``),
* the heap-driven :class:`~repro.rollout.scheduler.PoolScheduler` event loop,
* the single-pass worker grouping in
  :func:`~repro.profiler.overlap.compute_overlap`.

The pre-optimization baseline is not a hard-coded number (machine-dependent
and unverifiable) but the *preserved original code*, kept as test oracles in
``tests/oracles/`` and swapped in for one run: the reference flood-fill Go
engine (``go_reference.py``), the scalar one-object-per-child MCTS
(``scalar_mcts.py``) and the linear-scan scheduler loop
(``scan_scheduler.py``, swapped in as ``PoolScheduler.run``); the overlap
sweep bar times the original Python loop (``overlap_loop.py``) against the
vectorized sweep.  Both harnesses run the same
8-worker / ``leaf_batch=8`` event-scheduler pool on the same seed; the
acceptance bar is a **>=3x end-to-end wall-clock speedup** with game records
and per-worker virtual clocks **bit-for-bit identical** — fast must also mean
unchanged.

Outputs:

* a ``wallclock`` block (per-metric numbers) and a ``multiproc`` block in the
  untracked bench record ``BENCH_wallclock.json``, written by
  ``benchmarks/record.py``;
* ``results/wallclock_speedups.txt`` — the before/after table.

Set ``WALLCLOCK_QUICK=1`` (the CI smoke step does) for a smaller workload
with the same assertions.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import save_report
from record import record
from repro.minigo import selfplay as selfplay_mod
from repro.minigo.workers import SelfPlayPool
from repro.profiler.overlap import OverlapResult, compute_overlap
from repro.rollout.scheduler import PoolScheduler

QUICK = os.environ.get("WALLCLOCK_QUICK") == "1"
REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.event_trace import EventTrace, event_trace  # noqa: E402
from oracles.go_reference import ReferenceGoPosition  # noqa: E402
from oracles.overlap_loop import accumulate_columns_loop, accumulate_worker_loop  # noqa: E402
from oracles.scalar_mcts import ScalarMCTS, ScalarSearchCursor  # noqa: E402
from oracles.scan_scheduler import run_scan  # noqa: E402

NUM_WORKERS = 8
LEAF_BATCH = 8
POOL_KWARGS = dict(
    board_size=9,
    num_simulations=16,
    games_per_worker=1,
    max_moves=6 if QUICK else 12,
    hidden=(32, 32),
    seed=0,
    profile=False,
    batched_inference=True,
    leaf_batch=LEAF_BATCH,
    scheduler="event",
)

#: The acceptance bar pinned by ISSUE 5 (measured ~8x on the dev machine).
MIN_END_TO_END_SPEEDUP = 3.0

#: Synthetic worker count / timing repeats for the overlap-throughput metric
#: (the single-pass win grows with worker count, so it is measured wide).
OVERLAP_WORKERS = 8 if QUICK else 32
OVERLAP_REPEATS = 3
#: Per-worker interval floor for the overlap trace: the vectorized sweep's
#: win is per-worker-slice-sized, so each worker's slice is tiled in time
#: until it is at least this dense.
OVERLAP_MIN_INTERVALS_PER_WORKER = 4000
#: Acceptance floor for the vectorized sweep vs the preserved Python loop
#: (measured ~6x at the density above, ~8x on very large slices).
MIN_OVERLAP_VECTOR_SPEEDUP = 5.0


@contextmanager
def pre_optimization_harness():
    """Swap the preserved original implementations in for one run."""
    saved = (selfplay_mod.GoPosition, selfplay_mod.MCTS, selfplay_mod.SearchCursor,
             PoolScheduler.run)
    selfplay_mod.GoPosition = ReferenceGoPosition
    selfplay_mod.MCTS = ScalarMCTS
    selfplay_mod.SearchCursor = ScalarSearchCursor
    PoolScheduler.run = run_scan
    try:
        yield
    finally:
        (selfplay_mod.GoPosition, selfplay_mod.MCTS, selfplay_mod.SearchCursor,
         PoolScheduler.run) = saved


def _run_pool(**overrides):
    kwargs = dict(POOL_KWARGS)
    kwargs.update(overrides)
    start = time.perf_counter()
    pool = SelfPlayPool(NUM_WORKERS, **kwargs)
    pool.run()
    return pool, time.perf_counter() - start


def _game_records(pool):
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


def _moves(pool) -> int:
    return sum(run.result.moves for run in pool.runs)


def _overlap_metrics():
    """Time the overlap hot path's two optimizations on a wide, dense trace.

    * **single-pass grouping vs per-worker re-filter** — the win is
      O(workers x events) filter work avoided, so it is measured on a
      many-worker trace: one profiled worker shard cloned across
      ``OVERLAP_WORKERS`` synthetic workers.
    * **vectorized sweep vs the preserved Python loop**
      (``tests/oracles/overlap_loop.py``) — the win is per worker *slice*, so
      each worker's clone is additionally tiled in time until it holds at
      least ``OVERLAP_MIN_INTERVALS_PER_WORKER`` intervals.  Both sweeps
      must produce byte-identical regions (same key order, same float
      bits), and the speedup must clear ``MIN_OVERLAP_VECTOR_SPEEDUP``.

    Timings take the best of ``OVERLAP_REPEATS`` runs to suppress
    scheduler noise.
    """
    from dataclasses import replace

    from repro.profiler import overlap as overlap_mod
    from repro.profiler.columns import TraceColumns

    pool, _ = _run_pool(profile=True)
    merged = event_trace(TraceColumns.concat([run.trace.columns for run in pool.runs]))
    shard_worker = merged.workers()[0]
    shard_events = [e for e in merged.events if e.worker == shard_worker]
    shard_ops = [op for op in merged.operations if op.worker == shard_worker]
    shard_intervals = len(shard_events) + len(shard_ops)
    density = -(-OVERLAP_MIN_INTERVALS_PER_WORKER // max(shard_intervals, 1))
    shard_span = max(e.end_us for e in shard_events + shard_ops) + 10.0
    wide = EventTrace()
    for index in range(OVERLAP_WORKERS):
        clone = f"overlap_worker_{index:02d}"
        for tile in range(density):
            offset = tile * shard_span
            wide.events.extend(
                replace(e, worker=clone, start_us=e.start_us + offset,
                        end_us=e.end_us + offset) for e in shard_events)
            wide.operations.extend(
                replace(op, worker=clone, start_us=op.start_us + offset,
                        end_us=op.end_us + offset) for op in shard_ops)
    intervals = len(wide.events) + len(wide.operations)
    workers = wide.workers()
    wide_trace = wide.columnar()

    single_pass_s = min(
        _timed(lambda: compute_overlap(wide_trace)) for _ in range(OVERLAP_REPEATS))
    single_pass = compute_overlap(wide_trace)

    # The pre-optimization cost model: one full-trace filter per worker
    # (compute_overlap restricted to one worker scans everything it is fed).
    def refilter():
        return OverlapResult.merge(
            compute_overlap(wide_trace, workers=[worker]) for worker in workers)

    refilter_s = min(_timed(refilter) for _ in range(OVERLAP_REPEATS))
    assert refilter().regions == single_pass.regions, \
        "per-worker re-filtered overlap must stay byte-identical to the single pass"

    # The second preserved baseline: the per-boundary Python sweep
    # (accumulate_worker_loop), swapped in for the vectorized one.  Timed on
    # pre-grouped per-worker slices so the bar isolates exactly what was
    # vectorized; byte-identity is asserted end to end through
    # compute_overlap.
    vectorized_sweep = overlap_mod._accumulate_worker
    overlap_mod._accumulate_worker = accumulate_columns_loop
    try:
        loop_result = compute_overlap(wide_trace)
    finally:
        overlap_mod._accumulate_worker = vectorized_sweep
    assert list(loop_result.regions) == list(single_pass.regions) and all(
        loop_result.regions[key].hex() == single_pass.regions[key].hex()
        for key in loop_result.regions), \
        "vectorized sweep must be byte-identical to the Python loop"

    from collections import defaultdict

    events_by_worker = {w: [e for e in wide.events if e.worker == w] for w in workers}
    ops_by_worker = {w: [op for op in wide.operations if op.worker == w] for w in workers}
    # Each side starts from what its profiler recorded during the run: the
    # loop from the record objects, the sweep from the same records as rows
    # in a profiler sink.  The sweep's timed region includes reading that
    # sink back as columns (what finalize does), as the loop's excludes
    # building the objects.
    sinks = {worker: EventTrace(events=events_by_worker[worker],
                                operations=ops_by_worker[worker]).sink()
             for worker in workers}

    def sweep_all_columns():
        for worker in workers:
            table = sinks[worker].columnar_trace({}).columns
            vectorized_sweep(table.strings, table.events, table.operations,
                             defaultdict(float))

    def sweep_all_loop():
        for worker in workers:
            accumulate_worker_loop(events_by_worker[worker], ops_by_worker[worker],
                                   defaultdict(float))

    vec_sweep_s = min(_timed(sweep_all_columns) for _ in range(OVERLAP_REPEATS))
    loop_sweep_s = min(_timed(sweep_all_loop) for _ in range(OVERLAP_REPEATS))
    vector_speedup = loop_sweep_s / vec_sweep_s if vec_sweep_s > 0 else float("inf")
    assert vector_speedup >= MIN_OVERLAP_VECTOR_SPEEDUP, (
        f"expected >= {MIN_OVERLAP_VECTOR_SPEEDUP}x vectorized overlap sweep on "
        f"{intervals // len(workers)} intervals/worker, got {vector_speedup:.2f}x "
        f"({loop_sweep_s:.3f}s -> {vec_sweep_s:.3f}s)")
    return {
        "trace_intervals": intervals,
        "workers": len(workers),
        "single_pass_s": single_pass_s,
        "per_worker_refilter_s": refilter_s,
        "vec_sweep_s": vec_sweep_s,
        "loop_sweep_s": loop_sweep_s,
        "vector_speedup": vector_speedup,
        "events_per_sec": intervals / vec_sweep_s if vec_sweep_s > 0 else float("inf"),
        "loop_events_per_sec": intervals / loop_sweep_s if loop_sweep_s > 0 else float("inf"),
        "end_to_end_events_per_sec": intervals / single_pass_s if single_pass_s > 0 else float("inf"),
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_wallclock(benchmark):
    # --- pre-optimization baseline: preserved original implementations.
    with pre_optimization_harness():
        baseline_pool, baseline_s = _run_pool()

    # --- optimized harness (what the repo ships today).
    optimized_pool = benchmark.pedantic(lambda: _run_pool(), rounds=1, iterations=1)[0]
    # Re-run outside the benchmark wrapper for a clean wall-clock sample.
    optimized_pool, optimized_s = _run_pool()

    # --- fast must also be unchanged: records, clocks, scheduler decisions.
    assert _game_records(optimized_pool) == _game_records(baseline_pool), \
        "optimized harness must reproduce the pre-optimization game records bit-for-bit"
    assert [run.total_time_us for run in optimized_pool.runs] == \
        [run.total_time_us for run in baseline_pool.runs]
    new_stats, old_stats = optimized_pool.pool_scheduler.stats, baseline_pool.pool_scheduler.stats
    assert (new_stats.steps, new_stats.serves, new_stats.timeout_serves,
            new_stats.eager_serves, new_stats.steps_per_worker) == \
           (old_stats.steps, old_stats.serves, old_stats.timeout_serves,
            old_stats.eager_serves, old_stats.steps_per_worker)
    assert new_stats.heap_pushes > 0 and new_stats.heap_pops > 0
    assert old_stats.heap_pushes == 0  # the baseline really ran the scan loop

    # --- the acceptance bar.
    speedup = baseline_s / optimized_s
    assert speedup >= MIN_END_TO_END_SPEEDUP, (
        f"expected >= {MIN_END_TO_END_SPEEDUP}x end-to-end wall-clock speedup on the "
        f"{NUM_WORKERS}-worker/leaf_batch={LEAF_BATCH} pool run, got {speedup:.2f}x "
        f"({baseline_s:.3f}s -> {optimized_s:.3f}s)")

    # --- per-hot-path throughput metrics.
    moves = _moves(optimized_pool)
    scheduler_events = new_stats.steps + new_stats.serves
    overlap = _overlap_metrics()
    metrics = {
        "end_to_end": {
            "workers": NUM_WORKERS,
            "leaf_batch": LEAF_BATCH,
            "board_size": POOL_KWARGS["board_size"],
            "max_moves": POOL_KWARGS["max_moves"],
            "baseline_s": baseline_s,
            "optimized_s": optimized_s,
            "speedup": speedup,
        },
        "scheduler": {
            "events": scheduler_events,
            "events_per_sec": scheduler_events / optimized_s,
            "baseline_events_per_sec": (old_stats.steps + old_stats.serves) / baseline_s,
            "heap_pushes": new_stats.heap_pushes,
            "heap_pops": new_stats.heap_pops,
            "heap_stale_pops": new_stats.heap_stale_pops,
        },
        "selfplay": {
            "moves": moves,
            "moves_per_sec": moves / optimized_s,
            "baseline_moves_per_sec": _moves(baseline_pool) / baseline_s,
        },
        "overlap": overlap,
    }

    entry = record("wallclock", {"quick": QUICK, "min_speedup_bar": MIN_END_TO_END_SPEEDUP,
                                 "metrics": metrics})

    rows = [
        ("end-to-end pool run (s)", f"{baseline_s:.3f}", f"{optimized_s:.3f}",
         f"{speedup:.2f}x"),
        ("scheduler events/sec", f"{metrics['scheduler']['baseline_events_per_sec']:,.0f}",
         f"{metrics['scheduler']['events_per_sec']:,.0f}",
         f"{metrics['scheduler']['events_per_sec'] / max(metrics['scheduler']['baseline_events_per_sec'], 1e-12):.2f}x"),
        ("self-play moves/sec", f"{metrics['selfplay']['baseline_moves_per_sec']:,.1f}",
         f"{metrics['selfplay']['moves_per_sec']:,.1f}",
         f"{metrics['selfplay']['moves_per_sec'] / max(metrics['selfplay']['baseline_moves_per_sec'], 1e-12):.2f}x"),
        ("overlap pass (s)", f"{overlap['per_worker_refilter_s']:.4f}",
         f"{overlap['single_pass_s']:.4f}",
         f"{overlap['per_worker_refilter_s'] / max(overlap['single_pass_s'], 1e-12):.2f}x"),
        ("overlap sweep (s)", f"{overlap['loop_sweep_s']:.4f}",
         f"{overlap['vec_sweep_s']:.4f}",
         f"{overlap['vector_speedup']:.2f}x"),
    ]
    lines = [
        "Wall-clock speedups: pre-optimization harness vs optimized harness",
        f"(8 workers, leaf_batch=8, board 9x9, max_moves={POOL_KWARGS['max_moves']}, "
        f"seed 0, quick={QUICK}, commit {entry['commit'][:12]})",
        "",
        f"{'metric':<28} {'before':>14} {'after':>14} {'speedup':>9}",
        "-" * 68,
    ]
    for name, before, after, ratio in rows:
        lines.append(f"{name:<28} {before:>14} {after:>14} {ratio:>9}")
    lines += [
        "",
        f"overlap trace: {overlap['trace_intervals']} intervals across "
        f"{overlap['workers']} workers "
        f"({overlap['events_per_sec']:,.0f} intervals/sec vectorized, "
        f"{overlap['loop_events_per_sec']:,.0f} with the preserved loop; "
        f"both sweeps byte-identical, asserted)",
        "",
        "Game records, per-worker clocks and scheduler decisions are",
        "bit-for-bit identical between the two harnesses (asserted).",
    ]
    report = "\n".join(lines)
    print()
    print(report)
    save_report("wallclock_speedups", report)


# --------------------------------------------------------------------------
# Multiprocess sharded execution (repro.parallel): the scaling trajectory.
# --------------------------------------------------------------------------

#: ``MULTIPROC_QUICK=1`` (the CI smoke step) shrinks the workload and the
#: process grid; ``WALLCLOCK_QUICK=1`` implies it.
MULTIPROC_QUICK = QUICK or os.environ.get("MULTIPROC_QUICK") == "1"
MULTIPROC_PROCESSES = (1, 2) if MULTIPROC_QUICK else (1, 2, 4, 8)
MULTIPROC_WORKERS = 4 if MULTIPROC_QUICK else NUM_WORKERS
MULTIPROC_POOL_KWARGS = dict(
    POOL_KWARGS,
    board_size=5 if MULTIPROC_QUICK else POOL_KWARGS["board_size"],
    num_simulations=8 if MULTIPROC_QUICK else POOL_KWARGS["num_simulations"],
    max_moves=4 if MULTIPROC_QUICK else POOL_KWARGS["max_moves"],
    leaf_batch=4 if MULTIPROC_QUICK else LEAF_BATCH,
)

#: The acceptance bar pinned by ISSUE 8: >= 2x end-to-end wall-clock over the
#: single-process event loop at 8 workers / leaf_batch=8.  Real OS processes
#: cannot beat a serialized loop without cores to run on, so the bar is only
#: *enforced* on >= 8-core machines (and never in quick mode); the scaling
#: table is measured and recorded regardless.
MIN_MULTIPROC_SPEEDUP = 2.0
MULTIPROC_MIN_CORES = 8


def _run_multiproc_pool(**overrides):
    kwargs = dict(MULTIPROC_POOL_KWARGS)
    kwargs.update(overrides)
    start = time.perf_counter()
    pool = SelfPlayPool(MULTIPROC_WORKERS, **kwargs)
    pool.run()
    return pool, time.perf_counter() - start


def _pool_signature(pool):
    stats = pool.pool_scheduler.stats
    return (_game_records(pool),
            [run.total_time_us for run in pool.runs],
            (stats.steps, stats.serves, stats.timeout_serves,
             stats.eager_serves, sorted(stats.steps_per_worker.items())))


def test_bench_multiproc(benchmark):
    # --- the single-process event loop: the baseline every shard count must
    # reproduce bit-for-bit.
    sequential_pool = benchmark.pedantic(
        lambda: _run_multiproc_pool()[0], rounds=1, iterations=1)
    sequential_pool, sequential_s = _run_multiproc_pool()
    reference = _pool_signature(sequential_pool)

    # --- num_processes=1 (inline backend) is the pinned degenerate case.
    inline_pool, _ = _run_multiproc_pool(num_processes=1,
                                         process_backend="inline")
    assert _pool_signature(inline_pool) == reference, \
        "num_processes=1 must reproduce the sequential event loop bit-for-bit"

    # --- the scaling table: real OS processes, every row bit-identical.
    table = []
    for processes in MULTIPROC_PROCESSES:
        pool, wall_s = _run_multiproc_pool(num_processes=processes,
                                           process_backend="process")
        assert _pool_signature(pool) == reference, (
            f"num_processes={processes} diverged from the sequential loop — "
            "game records / clocks / scheduler decisions must be identical")
        table.append({
            "processes": processes,
            "wall_s": wall_s,
            "speedup": sequential_s / wall_s if wall_s > 0 else float("inf"),
        })

    best = max(table, key=lambda row: row["speedup"])
    cores = os.cpu_count() or 1
    bar_enforced = cores >= MULTIPROC_MIN_CORES and not MULTIPROC_QUICK
    if bar_enforced:
        assert best["speedup"] >= MIN_MULTIPROC_SPEEDUP, (
            f"expected >= {MIN_MULTIPROC_SPEEDUP}x wall-clock at "
            f"{MULTIPROC_WORKERS} workers / leaf_batch="
            f"{MULTIPROC_POOL_KWARGS['leaf_batch']} on a {cores}-core machine, "
            f"got {best['speedup']:.2f}x with {best['processes']} processes "
            f"({sequential_s:.3f}s -> {best['wall_s']:.3f}s)")

    entry = record("multiproc", {
        "quick": MULTIPROC_QUICK,
        "cpu_count": cores,
        "workers": MULTIPROC_WORKERS,
        "leaf_batch": MULTIPROC_POOL_KWARGS["leaf_batch"],
        "board_size": MULTIPROC_POOL_KWARGS["board_size"],
        "max_moves": MULTIPROC_POOL_KWARGS["max_moves"],
        "sequential_s": sequential_s,
        "min_speedup_bar": MIN_MULTIPROC_SPEEDUP,
        "bar_enforced": bar_enforced,
        "table": table,
    })

    lines = [
        "Multiprocess sharded execution: wall-clock scaling vs the "
        "single-process event loop",
        f"({MULTIPROC_WORKERS} workers, leaf_batch="
        f"{MULTIPROC_POOL_KWARGS['leaf_batch']}, board "
        f"{MULTIPROC_POOL_KWARGS['board_size']}x"
        f"{MULTIPROC_POOL_KWARGS['board_size']}, "
        f"max_moves={MULTIPROC_POOL_KWARGS['max_moves']}, seed 0, "
        f"{cores} cores, quick={MULTIPROC_QUICK}, "
        f"commit {entry['commit'][:12]})",
        "",
        f"{'processes':>10} {'wall s':>10} {'speedup':>9}",
        "-" * 31,
        f"{'(seq)':>10} {sequential_s:>10.3f} {'1.00x':>9}",
    ]
    for row in table:
        lines.append(f"{row['processes']:>10d} {row['wall_s']:>10.3f} "
                     f"{row['speedup']:>8.2f}x")
    lines += [
        "",
        f">= {MIN_MULTIPROC_SPEEDUP}x bar "
        + ("enforced" if bar_enforced else
           f"recorded only (needs >= {MULTIPROC_MIN_CORES} cores and full "
           "mode; this run does not qualify)") + ".",
        "Every row's game records, per-worker clocks and scheduler decisions",
        "are bit-for-bit identical to the sequential event loop (asserted).",
    ]
    report = "\n".join(lines)
    print()
    print(report)
    save_report("multiproc_scaling", report)
