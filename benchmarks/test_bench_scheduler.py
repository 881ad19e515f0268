"""Benchmark: event-driven virtual-time pool scheduler vs sequential batching.

Regenerates the scheduler sweep behind the PoolScheduler (true cross-worker
batched inference for the paper's Minigo workload):

* with 8 workers and ``leaf_batch=8`` the event-driven scheduler issues at
  least 2x fewer engine calls than the sequential (one ticket per call)
  setting and at least half of its batches serve more than one worker (the
  acceptance bars; the measured numbers are far beyond both);
* the event-driven pool at ``leaf_batch=1`` under the ``unbatched`` flush
  policy reproduces, move-for-move, a reference that runs each worker to
  completion in turn and serves its tickets the moment it blocks, so the
  scheduler machinery itself (resumable searches, stepwise game drivers,
  the virtual-time event loop) introduces zero drift.
"""

from conftest import save_report
from repro.experiments.schedsweep import run_sched_sweep
from repro.minigo.selfplay import GameDriver
from repro.minigo.workers import SCHEDULER_EVENT, SelfPlayPool

SWEEP_LEAF_BATCHES = (1, 4, 8)
NUM_WORKERS = 8
POOL_KWARGS = dict(
    board_size=5,
    num_simulations=16,
    games_per_worker=1,
    max_moves=10,
    hidden=(32, 32),
    seed=0,
)


def _game_records(pool):
    """Per-worker (features, policy, value) byte records of every move."""
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


def _run_reference_pool(num_workers, leaf_batch, **kwargs):
    """Oracle: each worker runs to completion in turn, served unbatched when it blocks."""
    pool = SelfPlayPool(num_workers, batched_inference=True, leaf_batch=leaf_batch, **kwargs)
    pool.inference_service = pool._build_service()
    for index in range(num_workers):
        worker, profiler = pool._make_worker(index, None)
        driver = GameDriver(worker, pool.games_per_worker)
        while not driver.finished:
            driver.step()
            if driver.blocked:
                pool.inference_service.serve_queued(policy="unbatched")
        pool.runs.append(pool._finish_worker(worker, profiler, driver.result))
    return pool


def test_bench_scheduler_batchsweep(benchmark):
    sweep = benchmark.pedantic(
        lambda: run_sched_sweep(SWEEP_LEAF_BATCHES, num_workers=NUM_WORKERS, **POOL_KWARGS),
        rounds=1, iterations=1)

    # --- determinism: the event-driven machinery adds zero drift.
    reference = _run_reference_pool(NUM_WORKERS, 1, profile=False, **POOL_KWARGS)
    event = SelfPlayPool(NUM_WORKERS, profile=False, batched_inference=True, leaf_batch=1,
                         scheduler="event", flush_policy="unbatched", **POOL_KWARGS)
    event.run()
    assert _game_records(reference) == _game_records(event), \
        "event-driven pool at leaf_batch=1 must reproduce the reference game records move-for-move"
    assert [run.total_time_us for run in reference.runs] == \
        [run.total_time_us for run in event.runs]

    # --- the acceptance bars: >=2x fewer engine calls, >=50% cross-worker batches.
    reduction = sweep.call_reduction(8)
    assert reduction >= 2.0, \
        f"expected >=2x fewer engine calls under the event scheduler at leaf_batch=8, got {reduction:.2f}x"
    assert sweep.raw_call_reduction(8) >= 2.0
    share = sweep.point(SCHEDULER_EVENT, 8).cross_worker_share
    assert share >= 0.5, \
        f"expected >=50% cross-worker batches at 8 workers / leaf_batch=8, got {share:.1%}"
    # The queueing model actually charges waiting time.
    assert sweep.point(SCHEDULER_EVENT, 8).mean_queue_delay_us > 0.0

    report = sweep.report()
    print()
    print(report)
    save_report("scheduler_batchsweep", report)
