"""Multiprocess sharded execution: bit-identity with the sequential loop.

The contract under test is absolute: ``num_processes=N`` (either backend)
must reproduce the single-process event loop's game records, transitions,
per-worker clocks, scheduler decisions, service stats, routing decisions
and streamed traces bit-for-bit.  The inline backend runs the shard logic
in-process (fast, deterministic CI); a smaller set of tests exercises real
OS processes end-to-end, including the streamed-trace shard merge.
"""

import numpy as np
import pytest

from oracles.event_trace import resolved
from repro.minigo.workers import SelfPlayPool
from repro.parallel import assign_workers
from repro.rollout import EnvRolloutPool


def _scheduler_signature(pool):
    stats = pool.pool_scheduler.stats
    return (stats.steps, stats.serves, stats.timeout_serves, stats.eager_serves,
            sorted(stats.steps_per_worker.items()))


def _service_signature(pool):
    service = pool.inference_service
    return (service.stats.engine_calls, service.stats.rows,
            service.stats.requests, service.stats.queue_delay_us,
            service.stats.cross_worker_batches, service.stats.max_batch_rows,
            service.routing_decisions(),
            [replica.free_us for replica in service.replicas],
            [replica.busy_us for replica in service.replicas])


def _env_signature(pool):
    runs = [(run.worker, run.total_time_us, run.result.steps,
             run.result.episodes, run.result.episode_rewards,
             [(t.obs.tobytes(), np.asarray(t.action).tobytes(), t.reward,
               t.next_obs.tobytes(), t.done) for t in run.result.transitions])
            for run in pool.runs]
    return (runs, _scheduler_signature(pool), _service_signature(pool))


def _selfplay_signature(pool):
    runs = [(run.worker, run.total_time_us, run.result.moves,
             run.result.black_wins,
             [(e.features.tobytes(), e.policy_target.tobytes(), e.value_target)
              for e in run.result.examples])
            for run in pool.runs]
    return (runs, _scheduler_signature(pool), _service_signature(pool))


def _trace_signature(pool):
    """Every record of every worker's in-memory trace, strings resolved."""
    return {run.worker: (resolved(run.trace), run.trace.metadata)
            for run in pool.runs if run.trace is not None}


ENV_KW = dict(num_workers=4, steps_per_worker=6, seed=3, profile=True)
SP_KW = dict(num_workers=4, board_size=5, num_simulations=8, games_per_worker=1,
             leaf_batch=2, batched_inference=True, scheduler="event", seed=11,
             profile=True)


# ------------------------------------------------------------ inline backend
def test_env_pool_inline_matches_sequential():
    sequential = EnvRolloutPool("Pong", **ENV_KW)
    sequential.run()
    sharded = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                             process_backend="inline")
    sharded.run()
    assert _env_signature(sharded) == _env_signature(sequential)
    assert _trace_signature(sharded) == _trace_signature(sequential)


def test_selfplay_pool_inline_matches_sequential_with_replicas():
    # num_replicas=2 exercises the eager full-batch path through the mirror.
    sequential = SelfPlayPool(**SP_KW, num_replicas=2, inference_max_batch=4)
    sequential.run()
    sharded = SelfPlayPool(**SP_KW, num_replicas=2, inference_max_batch=4,
                           num_processes=2, process_backend="inline")
    sharded.run()
    assert _selfplay_signature(sharded) == _selfplay_signature(sequential)
    assert _trace_signature(sharded) == _trace_signature(sequential)


def test_env_pool_inline_matches_sequential_under_timeout_flush():
    kw = dict(num_workers=3, steps_per_worker=5, seed=7,
              flush_policy="timeout", flush_timeout_us=50.0)
    sequential = EnvRolloutPool("Hopper", **kw)
    sequential.run()
    sharded = EnvRolloutPool("Hopper", **kw, num_processes=3,
                             process_backend="inline")
    sharded.run()
    assert _env_signature(sharded) == _env_signature(sequential)


def test_single_process_shard_is_the_sequential_pool():
    # num_processes=1 is the pinned degenerate case: one shard owns everyone.
    sequential = EnvRolloutPool("Pong", **ENV_KW)
    sequential.run()
    one = EnvRolloutPool("Pong", **ENV_KW, num_processes=1,
                         process_backend="inline")
    one.run()
    assert _env_signature(one) == _env_signature(sequential)


# ----------------------------------------------------------- process backend
def test_env_pool_process_backend_matches_sequential():
    sequential = EnvRolloutPool("Pong", **ENV_KW)
    sequential.run()
    sharded = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                             process_backend="process")
    sharded.run()
    assert _env_signature(sharded) == _env_signature(sequential)
    assert _trace_signature(sharded) == _trace_signature(sequential)


def test_selfplay_process_backend_matches_sequential():
    sequential = SelfPlayPool(**SP_KW)
    sequential.run()
    sharded = SelfPlayPool(**SP_KW, num_processes=2, process_backend="process")
    sharded.run()
    assert _selfplay_signature(sharded) == _selfplay_signature(sequential)
    assert _trace_signature(sharded) == _trace_signature(sequential)


def test_same_seed_multiprocess_runs_are_identical():
    # Satellite of the explicit (seed, worker_index) stream derivation: two
    # cross-process runs of the same seed agree with each other and with the
    # sequential loop — no process-local RNG state leaks into the records.
    runs = []
    for _ in range(2):
        pool = EnvRolloutPool("Hopper", num_workers=4, steps_per_worker=5,
                              seed=21, num_processes=2,
                              process_backend="process")
        pool.run()
        runs.append(_env_signature(pool))
    sequential = EnvRolloutPool("Hopper", num_workers=4, steps_per_worker=5,
                                seed=21)
    sequential.run()
    assert runs[0] == runs[1] == _env_signature(sequential)


def test_streamed_traces_merge_into_one_store(tmp_path):
    kw = dict(SP_KW)
    sequential = SelfPlayPool(**kw, trace_dir=str(tmp_path / "seq"))
    sequential.run()
    sharded = SelfPlayPool(**kw, trace_dir=str(tmp_path / "par"),
                           num_processes=2, process_backend="process")
    sharded.run()
    db_seq, db_par = sequential.tracedb(), sharded.tracedb()
    assert sorted(db_par.workers()) == sorted(db_seq.workers())
    for worker in db_par.workers():
        for iterate in ("iter_events", "iter_operations"):
            seq_records = [(e.category, e.name, e.start_us, e.end_us, e.metadata)
                           for e in getattr(db_seq, iterate)(worker=worker)]
            par_records = [(e.category, e.name, e.start_us, e.end_us, e.metadata)
                           for e in getattr(db_par, iterate)(worker=worker)]
            assert par_records == seq_records
    # Streaming pools return lightweight runs; the records live in the store.
    assert all(run.trace is None for run in sharded.runs)


# ------------------------------------------------------------------ plumbing
def test_assign_workers_stripes_and_caps():
    assert assign_workers(8, 2) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert assign_workers(3, 8) == [[0], [1], [2]]
    assert assign_workers(5, 1) == [[0, 1, 2, 3, 4]]


def test_more_processes_than_workers_still_bit_identical():
    sequential = EnvRolloutPool("Pong", num_workers=2, steps_per_worker=4, seed=1)
    sequential.run()
    sharded = EnvRolloutPool("Pong", num_workers=2, steps_per_worker=4, seed=1,
                             num_processes=8, process_backend="inline")
    sharded.run()
    assert _env_signature(sharded) == _env_signature(sequential)


def test_multiprocess_validations():
    with pytest.raises(ValueError, match="num_processes"):
        EnvRolloutPool("Pong", 2, num_processes=0)
    with pytest.raises(ValueError, match="backend"):
        EnvRolloutPool("Pong", 2, num_processes=2, process_backend="threads")
    with pytest.raises(ValueError, match="event scheduler"):
        SelfPlayPool(num_workers=2, batched_inference=True,
                     scheduler="sequential", num_processes=2)
    with pytest.raises(ValueError, match="live objects"):
        EnvRolloutPool("Pong", 2, policy_factory=lambda env, seed: None, num_processes=2)
    from repro.tracedb.writer import StreamingTraceWriter
    with pytest.raises(ValueError, match="store"):
        EnvRolloutPool("Pong", 2, num_processes=2,
                       store=StreamingTraceWriter("/tmp/unused-store-dir"))


def test_shard_timeline_divergence_fails_loudly():
    # Corrupt a shard segment record: the proxy must refuse to merge it.
    from repro.parallel.proxy import ProxyDriver
    from repro.parallel.runner import ParallelRunner
    from repro.parallel.shard import ShardSpec

    pool = EnvRolloutPool("Pong", 2, steps_per_worker=3, seed=0)
    spec = ShardSpec(kind="envrollout", pool_config=pool.config,
                     own_options=pool.own_options, worker_indices=[0, 1])
    runner = ParallelRunner([spec], backend="inline")
    try:
        from functools import partial

        from repro.parallel.proxy import MirrorInferenceService

        service = pool._build_service(
            pool._probe_env(),
            service_factory=partial(MirrorInferenceService, runner=runner))
        segments = runner.build()
        pre, post = segments[0]["records"][0]
        segments[0]["records"][0] = (pre + 1.0, post)
        proxy = ProxyDriver(runner, 0, "rollout_worker_0", service, segments[0])
        with pytest.raises(RuntimeError, match="diverged"):
            proxy.step()
    finally:
        runner.stop()
