"""Tests for the event-driven virtual-time pool scheduler and game drivers."""

import numpy as np
import pytest

from oracles.scan_scheduler import run_scan
from repro.minigo import (
    GameDriver,
    MinigoConfig,
    MinigoTraining,
    PoolScheduler,
    SelfPlayPool,
)
from repro.minigo.mcts import MCTS, LeafEvalRequest
from repro.profiler import multi_process_summary
from repro.sim.go import GoPosition

POOL_KWARGS = dict(board_size=5, num_simulations=6, games_per_worker=1,
                   max_moves=8, hidden=(16, 16), seed=3)


def _game_records(pool):
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


# ------------------------------------------------------------ search_steps
def test_search_steps_matches_synchronous_search():
    """Driving the generator with the same evaluator reproduces search()."""
    def evaluator(features):
        batch = features.shape[0]
        priors = np.full((batch, 26), 1.0 / 26, dtype=np.float32)
        return priors, np.linspace(-0.5, 0.5, batch, dtype=np.float32)

    position = GoPosition.initial(size=5)
    sync = MCTS(evaluator, num_simulations=12, leaf_batch=4, rng=np.random.default_rng(5))
    sync_root = sync.search(position)

    stepped = MCTS(evaluator, num_simulations=12, leaf_batch=4, rng=np.random.default_rng(5))
    gen = stepped.search_steps(position)
    requests = 0
    try:
        request = next(gen)
        while True:
            assert isinstance(request, LeafEvalRequest)
            assert not request.done
            requests += 1
            request.fulfill(*evaluator(request.features))
            request = gen.send(None)
    except StopIteration as stop:
        stepped_root = stop.value

    assert requests >= 2  # root expansion plus at least one wave
    assert stepped_root.visit_count == sync_root.visit_count

    def visits(node):
        return sorted((index, child.visit_count) for index, child in node.children.items())
    assert visits(stepped_root) == visits(sync_root)


def test_search_steps_rejects_unfulfilled_resume():
    mcts = MCTS(lambda f: (np.full((f.shape[0], 26), 1 / 26), np.zeros(f.shape[0])),
                num_simulations=2)
    gen = mcts.search_steps(GoPosition.initial(size=5))
    next(gen)
    with pytest.raises(RuntimeError):
        gen.send(None)  # resumed without fulfilling the pending request


# ---------------------------------------------------- bit-for-bit determinism
def _run_reference_pool(num_workers, leaf_batch, **kwargs):
    """Test oracle: a batched pool run one worker at a time.

    Every worker's driver runs to completion in turn, and its ticket is
    served alone (``unbatched``) the moment it blocks, so no worker's
    timeline can depend on how any scheduler interleaves the others.
    """
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


@pytest.mark.parametrize("leaf_batch", [1, 4])
def test_event_unbatched_pool_is_bitwise_identical_to_sequential(leaf_batch):
    """The scheduler machinery itself introduces zero drift.

    Under the ``unbatched`` flush policy every ticket is served on its own
    worker's clock exactly as the one-worker-at-a-time reference serves it,
    so game records, per-worker clocks and overlap summaries must all be
    bit-for-bit identical — only the execution order interleaves.  The
    default ``sequential`` scheduler is that same loop and policy.
    """
    reference = _run_reference_pool(3, leaf_batch, profile=True, **POOL_KWARGS)
    for overrides in (dict(scheduler="event", flush_policy="unbatched"), {}):
        pool = SelfPlayPool(3, profile=True, batched_inference=True, leaf_batch=leaf_batch,
                            **overrides, **POOL_KWARGS)
        pool.run()

        assert _game_records(pool) == _game_records(reference)
        assert [run.total_time_us for run in pool.runs] == \
            [run.total_time_us for run in reference.runs]
        assert multi_process_summary(pool.traces()) == multi_process_summary(reference.traces())
        # The pool really ran through the scheduler.
        stats = pool.pool_scheduler.stats
        assert stats.steps > 0 and stats.serves > 0


def test_service_backed_worker_cannot_play_games_synchronously():
    """play_games has no serve path: a blocked driver must not be stepped."""
    pool = SelfPlayPool(1, profile=False, batched_inference=True, leaf_batch=2,
                        **POOL_KWARGS)
    pool.inference_service = pool._build_service()
    worker, _ = pool._make_worker(0, None)
    with pytest.raises(RuntimeError, match="blocked on inference"):
        worker.play_games(1)
    assert pool.inference_service.pending_tickets == 1


def test_event_scheduler_leaf_batch_one_reproduces_legacy_records():
    """The acceptance bar: event-driven at leaf_batch=1 == legacy sequential."""
    legacy = SelfPlayPool(3, profile=False, **POOL_KWARGS)
    legacy.run()
    event = SelfPlayPool(3, profile=False, batched_inference=True, leaf_batch=1,
                         scheduler="event", flush_policy="unbatched", **POOL_KWARGS)
    event.run()
    assert _game_records(event) == _game_records(legacy)


# ------------------------------------------------------- cross-worker batching
def test_event_scheduler_batches_across_workers():
    sequential = SelfPlayPool(4, profile=False, batched_inference=True, leaf_batch=4,
                              **POOL_KWARGS)
    sequential.run()
    event = SelfPlayPool(4, profile=False, batched_inference=True, leaf_batch=4,
                         scheduler="event", **POOL_KWARGS)
    event.run()

    seq_stats = sequential.inference_service.stats
    ev_stats = event.inference_service.stats
    assert seq_stats.cross_worker_batches == 0, \
        "sequential simulation cannot coalesce across workers"
    assert ev_stats.cross_worker_batches > 0
    assert ev_stats.cross_worker_share >= 0.5
    assert ev_stats.engine_calls < seq_stats.engine_calls / 2
    assert ev_stats.mean_batch_rows > seq_stats.mean_batch_rows
    # The queueing model charged arrival-order waiting time.
    assert ev_stats.queued_waits > 0
    assert ev_stats.mean_queue_delay_us >= 0.0
    assert 0.0 < ev_stats.mean_occupancy <= 1.0


def test_event_scheduler_profiled_run_attributes_wait_inside_operations():
    """Suspended waits land inside the worker's own operation annotations."""
    pool = SelfPlayPool(3, profile=True, batched_inference=True, leaf_batch=4,
                        scheduler="event", **POOL_KWARGS)
    pool.run()
    summaries = multi_process_summary(pool.traces())
    for run, summary in zip(pool.runs, summaries):
        # Everything the worker was charged — including queueing delay and
        # shared batch time — is covered by its recorded events: the trace's
        # span matches the clock, and no negative/overflowed times appear.
        assert summary.total_time_us == pytest.approx(run.total_time_us)
        assert summary.cpu_time_us <= summary.total_time_us + 1e-6
    for run in pool.runs:
        expand_ops = [op for op in run.trace.operations if op.name == "expand_leaf"]
        assert expand_ops
        assert all(op.metadata is not None and op.metadata.get("batch_rows", 0) >= 1
                   for op in expand_ops)
        # At least one wave of this worker rode a cross-worker batch.
        assert any(op.metadata.get("batch_clients", 0) > 1 for op in expand_ops)


# ------------------------------------------------------- heap vs linear scan
def _run_event_pool(use_heap, **overrides):
    """Run a pool on the heap loop, or with the scan-loop oracle swapped in."""
    kwargs = dict(profile=False, batched_inference=True, scheduler="event")
    kwargs.update(overrides)
    saved = PoolScheduler.run
    if not use_heap:
        PoolScheduler.run = run_scan
    try:
        pool = SelfPlayPool(**kwargs)
        pool.run()
    finally:
        PoolScheduler.run = saved
    return pool


@pytest.mark.parametrize("config", [
    dict(num_workers=5, leaf_batch=4),
    dict(num_workers=4, leaf_batch=4, flush_policy="timeout", flush_timeout_us=10.0),
    dict(num_workers=4, leaf_batch=4, num_replicas=2, routing="least-loaded"),
])
def test_heap_scheduler_matches_linear_scan(config):
    """The lazy min-heap makes identical scheduling decisions to the scan.

    Covered paths: the plain all-blocked barrier, timeout deadline serves
    (partial batches departing while others run), and replica-aware eager
    serves.  Game records, per-worker clocks and every *decision* counter
    must be identical; only the heap bookkeeping counters may differ.
    """
    heap_pool = _run_event_pool(True, **config, **POOL_KWARGS)
    scan_pool = _run_event_pool(False, **config, **POOL_KWARGS)

    assert _game_records(heap_pool) == _game_records(scan_pool)
    assert [run.total_time_us for run in heap_pool.runs] == \
        [run.total_time_us for run in scan_pool.runs]
    heap_stats, scan_stats = heap_pool.pool_scheduler.stats, scan_pool.pool_scheduler.stats
    assert (heap_stats.steps, heap_stats.serves, heap_stats.timeout_serves,
            heap_stats.eager_serves, heap_stats.steps_per_worker) == \
           (scan_stats.steps, scan_stats.serves, scan_stats.timeout_serves,
            scan_stats.eager_serves, scan_stats.steps_per_worker)
    # The heap loop actually used the heap; the scan loop never touched it.
    assert heap_stats.heap_pushes > 0
    assert heap_stats.heap_pops >= heap_stats.steps
    assert heap_stats.heap_stale_pops <= heap_stats.heap_pops
    assert scan_stats.heap_pushes == scan_stats.heap_pops == 0
    # Amortized-cost sanity: every pop is funded by a push.
    assert heap_stats.heap_pops <= heap_stats.heap_pushes


# ----------------------------------------------------------------- fairness
def test_no_worker_starves_under_the_event_loop():
    pool = SelfPlayPool(5, profile=False, batched_inference=True, leaf_batch=2,
                        scheduler="event", **POOL_KWARGS)
    pool.run()
    stats = pool.pool_scheduler.stats
    assert set(stats.steps_per_worker) == {run.worker for run in pool.runs}
    assert all(steps > 0 for steps in stats.steps_per_worker.values())
    # The heap-driven loop is the default and really drove this run; its
    # bookkeeping must be self-consistent (each step came off the heap).
    assert stats.heap_pushes > 0
    assert stats.heap_pops >= stats.steps
    # Every worker finished all its games and produced moves.
    for run in pool.runs:
        assert run.result.games == POOL_KWARGS["games_per_worker"]
        assert run.result.moves > 0
        assert run.total_time_us > 0
    # The min-clock policy keeps worker clocks within one wave of each other
    # while running, so final clocks cannot be wildly skewed.
    clocks = [run.total_time_us for run in pool.runs]
    assert max(clocks) < 2 * min(clocks)


def test_timeout_policy_serves_partial_batches_while_others_run():
    pool = SelfPlayPool(4, profile=False, batched_inference=True, leaf_batch=4,
                        scheduler="event", flush_policy="timeout", flush_timeout_us=10.0,
                        **POOL_KWARGS)
    pool.run()
    stats = pool.pool_scheduler.stats
    service_stats = pool.inference_service.stats
    # A 10us deadline is far shorter than a wave of tree-search work, so
    # most batches depart partial, before every worker has blocked.
    assert stats.timeout_serves > 0
    assert service_stats.mean_occupancy < 1.0
    # A generous deadline behaves like max-batch: bigger batches, more
    # queueing delay per request.
    relaxed = SelfPlayPool(4, profile=False, batched_inference=True, leaf_batch=4,
                           scheduler="event", flush_policy="timeout",
                           flush_timeout_us=1e9, **POOL_KWARGS)
    relaxed.run()
    relaxed_stats = relaxed.inference_service.stats
    assert relaxed_stats.mean_batch_rows >= service_stats.mean_batch_rows
    assert relaxed_stats.engine_calls <= service_stats.engine_calls


# ------------------------------------------------------------- configuration
def test_event_scheduler_requires_batched_inference():
    with pytest.raises(ValueError):
        SelfPlayPool(2, scheduler="event", **POOL_KWARGS)
    with pytest.raises(ValueError):
        SelfPlayPool(2, scheduler="bogus", **POOL_KWARGS)
    with pytest.raises(ValueError):
        SelfPlayPool(2, batched_inference=True, scheduler="event",
                     flush_policy="timeout", **POOL_KWARGS)  # missing timeout_us
    with pytest.raises(ValueError):
        # validated under the default sequential scheduler too
        SelfPlayPool(2, batched_inference=True, flush_policy="bogus", **POOL_KWARGS)


def test_game_driver_guards_misuse():
    pool = SelfPlayPool(1, profile=False, batched_inference=True, leaf_batch=2,
                        **POOL_KWARGS)
    pool.inference_service = None  # build worker without running
    worker, _ = pool._make_worker(0, None)
    driver = GameDriver(worker, 0)
    assert driver.finished and not driver.blocked
    assert driver.step() is False

    with pytest.raises(ValueError):
        PoolScheduler([], service=None)


# ------------------------------------------------- evaluation phase batching
def test_candidate_evaluation_routes_through_shared_service():
    config = MinigoConfig(num_workers=2, board_size=5, num_simulations=4,
                          games_per_worker=1, max_moves=6, sgd_steps=2,
                          evaluation_games=2, hidden=(16, 16), seed=0,
                          batched_inference=True, leaf_batch=4)
    result = MinigoTraining(config).run_round()

    stats = result.evaluation_inference_stats
    assert stats is not None
    assert stats.engine_calls > 0
    # Waves batch leaf evaluations: far fewer calls than evaluated rows.
    assert stats.engine_calls < stats.rows
    assert stats.mean_batch_rows > 1.0
    # Both sides of the match rode the one shared service.
    assert set(stats.rows_by_worker) == {"evaluation_current", "evaluation_candidate"}
    assert result.selfplay_inference_stats is not None
    assert result.selfplay_inference_stats.engine_calls > 0

    # Without batched inference the evaluation phase reports no stats.
    legacy = MinigoTraining(MinigoConfig(num_workers=1, board_size=5, num_simulations=2,
                                         games_per_worker=1, max_moves=4, sgd_steps=1,
                                         evaluation_games=1, hidden=(8, 8), seed=0))
    legacy_result = legacy.run_round()
    assert legacy_result.evaluation_inference_stats is None
    assert legacy_result.scheduler_stats is None


def test_minigo_round_runs_under_event_scheduler():
    config = MinigoConfig(num_workers=3, board_size=5, num_simulations=4,
                          games_per_worker=1, max_moves=6, sgd_steps=2,
                          evaluation_games=1, hidden=(16, 16), seed=0,
                          batched_inference=True, leaf_batch=4, scheduler="event")
    result = MinigoTraining(config).run_round()
    assert result.scheduler_stats is not None
    assert result.scheduler_stats.steps > 0
    assert result.selfplay_inference_stats.cross_worker_batches > 0
    assert len(result.traces()) == 5  # 3 self-play workers + trainer + evaluation
    assert result.losses


def test_timeout_policy_under_sharding_stays_correct_and_pipelines():
    """Timeout flush + 2 replicas: deadlines, eager serves and full games."""
    pool = SelfPlayPool(4, profile=False, batched_inference=True, leaf_batch=4,
                        scheduler="event", flush_policy="timeout", flush_timeout_us=10.0,
                        num_replicas=2, routing="least-loaded", **POOL_KWARGS)
    pool.run()
    for run in pool.runs:
        assert run.result.games == POOL_KWARGS["games_per_worker"]
        assert run.result.moves > 0
    service = pool.inference_service
    assert all(replica.stats.engine_calls > 0 for replica in service.replicas)
    assert sum(service.routing_decisions()) == service.stats.engine_calls
    # A zero deadline is the extreme edge: every pending batch is due the
    # instant its first request arrives; the pool must still terminate with
    # every ticket served exactly once.
    instant = SelfPlayPool(3, profile=False, batched_inference=True, leaf_batch=4,
                           scheduler="event", flush_policy="timeout",
                           flush_timeout_us=0.0, num_replicas=2, **POOL_KWARGS)
    instant.run()
    stats = instant.inference_service.stats
    assert stats.rows == sum(rs.rows for rs in
                             (r.stats for r in instant.inference_service.replicas))
    assert all(run.result.moves > 0 for run in instant.runs)


def test_eager_serve_is_skipped_only_when_no_full_batch_is_due(monkeypatch):
    """A skipped eager attempt must never leave a due full batch queued.

    The scheduler skips re-planning while the queue looks unchanged since a
    fruitless attempt.  A barrier or timeout serve in between empties the
    queue, and later submissions can rebuild one of the same shape that
    holds a due full batch; every skip is checked against the planner.
    """
    from repro.rollout.inference import InferenceService
    from repro.rollout.planner import plan

    eager_calls = []
    serve_queued = InferenceService.serve_queued

    def counting_serve_queued(self, **kwargs):
        if kwargs.get("full_batches_only"):
            eager_calls.append(kwargs)
        return serve_queued(self, **kwargs)

    try_eager_serve = PoolScheduler._try_eager_serve

    def checked_try_eager_serve(self, stable_before_us):
        service = self.service
        eligible = service.num_replicas > 1 and service.full_batch_pending()
        groups = {}
        for ticket in service._pending:
            groups.setdefault(id(ticket.client.network), []).append(ticket)
        called = len(eager_calls)
        served = try_eager_serve(self, stable_before_us)
        if eligible and len(eager_calls) == called:
            due = plan(list(groups.values()), max_batch=service.max_batch,
                       policy=self.flush_policy, timeout_us=self.flush_timeout_us,
                       full_batches_only=True, stable_before_us=stable_before_us)
            assert not due.batches, (
                f"eager serve skipped at {stable_before_us} us with "
                f"{len(due.batches)} due full batch(es) queued")
        return served

    monkeypatch.setattr(InferenceService, "serve_queued", counting_serve_queued)
    monkeypatch.setattr(PoolScheduler, "_try_eager_serve", checked_try_eager_serve)
    pool = SelfPlayPool(8, board_size=5, num_simulations=8, max_moves=6, hidden=(16,),
                        leaf_batch=2, profile=False, batched_inference=True,
                        scheduler="event", inference_max_batch=8, num_replicas=2,
                        routing="least-loaded", flush_policy="timeout",
                        flush_timeout_us=200.0)
    pool.run()
    assert eager_calls and pool.pool_scheduler.stats.eager_serves > 0
