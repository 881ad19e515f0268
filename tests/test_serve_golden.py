"""Golden digests of the inference service's serve paths.

The pool and serving digests elsewhere leave four ways of serving the
shared :class:`~repro.rollout.inference.InferenceService` unread.  Each is
pinned here, so a change to how batches are planned, routed or run must
leave all of them byte-identical:

* a ``scheduler="sequential"`` batched self-play pool, which serves every
  ticket alone on its own clock (the ``unbatched`` flush policy): the
  streamed store, every worker's clock, the scheduler's counters and the
  service's counters;
* a two-replica ``least-loaded`` self-play pool under the ``timeout`` flush
  policy, at a size where the scheduler both serves full batches eagerly
  and departs partial batches at their deadline: the store, the clocks,
  the scheduler's counters, the routing decisions and the batch-size
  reservoir sample;
* one batched Minigo training round, whose evaluation phase serves the
  current and the candidate network from one service: the round's store,
  its clocks, losses and both services' counters;
* the decision log and counters of an ``InferenceServer`` under the
  ``max-batch`` flush policy (the faulted serving digest covers
  ``timeout``).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.minigo import MinigoConfig, MinigoTraining, PolicyValueNet
from repro.minigo.workers import SelfPlayPool
from repro.serving import InferenceServer, LoadGenerator, PoissonProcess, run_serving

#: SHA-256 of each serve path's outputs, keyed by the test's case name.
#: ``sequential-pool`` was re-pinned when ``unbatched`` batches began to
#: stamp ``completion_us`` into request metadata: its ``expand_leaf``
#: operations gained that one key, and decoding both stores showed no other
#: difference in any event, marker, operation or worker clock.
SERVE_PATH_SHA256 = {
    "sequential-pool":
        "4cf158796ab9f0e74cb118264c53626cdc6b3f74f35128f7178d068666352d6c",
    "timeout-least-loaded-pool":
        "2b45b4067997a747921264884052dcca4b964a4e32ec9ad726bd6d2f1083e073",
    "minigo-round":
        "3a767de8ab9072cfc063dd73631e3d7e47c24f40d8da7a64f0c9ee5bb3a13d25",
    "max-batch-server":
        "42d88b3611c2ad1e89cfefd52e0ebd275d313d9a0b0078a37b6861df6acd9e9c",
}


def tree_digest(sha, root: Path) -> None:
    """Feed every file under ``root`` (relative path, then bytes) to ``sha``."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(path.relative_to(root).as_posix().encode("utf-8"))
        sha.update(path.read_bytes())


def service_counters(stats) -> tuple:
    """Every counter of one :class:`InferenceStats`, reservoirs included."""
    return (stats.requests, stats.rows, stats.engine_calls, stats.max_batch_rows,
            stats.cross_worker_batches, sorted(stats.rows_by_worker.items()),
            stats.batch_sizes.counts, stats.batch_sizes.sample, stats.queued_waits,
            stats.queue_delay_us, stats.max_queue_delay_us,
            stats.queue_delay_samples.sample, stats.cache_hits, stats.dedupe_rows)


def pool_digest(pool: SelfPlayPool, store: Path) -> "hashlib._Hash":
    pool.run()
    sha = hashlib.sha256()
    tree_digest(sha, store)
    service = pool.inference_service
    sha.update(repr([run.total_time_us for run in pool.runs]).encode("utf-8"))
    sha.update(repr(asdict(pool.pool_scheduler.stats)).encode("utf-8"))
    sha.update(repr(service_counters(service.stats)).encode("utf-8"))
    sha.update(repr([(r.free_us, r.busy_us) for r in service.replicas]).encode("utf-8"))
    sha.update(repr(service.routing_decisions()).encode("utf-8"))
    return sha


def _small_selfplay_pool(store: Path, **kwargs) -> SelfPlayPool:
    return SelfPlayPool(4, board_size=5, num_simulations=4, max_moves=6, hidden=(8,),
                        batched_inference=True, leaf_batch=2, seed=1,
                        trace_dir=str(store), **kwargs)


def test_sequential_batched_pool_is_golden(tmp_path):
    pool = _small_selfplay_pool(tmp_path / "store", scheduler="sequential")
    sha = pool_digest(pool, tmp_path / "store")
    assert pool.inference_service.stats.queued_waits == 0
    assert sha.hexdigest() == SERVE_PATH_SHA256["sequential-pool"]


def test_timeout_least_loaded_pool_is_golden(tmp_path):
    pool = _small_selfplay_pool(tmp_path / "store", scheduler="event", num_replicas=2,
                                routing="least-loaded", inference_max_batch=4,
                                flush_policy="timeout", flush_timeout_us=50.0)
    sha = pool_digest(pool, tmp_path / "store")
    stats = pool.pool_scheduler.stats
    assert stats.eager_serves > 0 and stats.timeout_serves > 0
    assert sha.hexdigest() == SERVE_PATH_SHA256["timeout-least-loaded-pool"]


def test_batched_minigo_round_is_golden(tmp_path):
    config = MinigoConfig(num_workers=3, board_size=5, num_simulations=4, max_moves=6,
                          hidden=(8,), sgd_steps=2, sgd_batch_size=4, evaluation_games=2,
                          batched_inference=True, scheduler="event", leaf_batch=2,
                          inference_max_batch=8, seed=1, trace_dir=str(tmp_path))
    result = MinigoTraining(config).run_round()
    eval_stats = result.evaluation_inference_stats
    assert len(eval_stats.rows_by_worker) == 2  # both networks rode one service
    sha = hashlib.sha256()
    tree_digest(sha, Path(result.trace_dir))
    sha.update(repr([run.total_time_us for run in result.worker_runs]).encode("utf-8"))
    sha.update(repr((result.trainer_time_us, result.evaluation_time_us, result.losses,
                     result.candidate_wins, result.weight_broadcast_us)).encode("utf-8"))
    sha.update(repr(asdict(result.scheduler_stats)).encode("utf-8"))
    sha.update(repr(service_counters(result.selfplay_inference_stats)).encode("utf-8"))
    sha.update(repr(service_counters(eval_stats)).encode("utf-8"))
    assert sha.hexdigest() == SERVE_PATH_SHA256["minigo-round"]


def test_max_batch_server_decision_log_is_golden():
    board = 5
    server = InferenceServer(PolicyValueNet(board, (16,), rng=np.random.default_rng(5)),
                             num_replicas=2, max_batch=4, queue_capacity=16,
                             overload="shed-oldest", flush_policy="max-batch", seed=5)
    loadgen = LoadGenerator(PoissonProcess(20_000.0), 16, feature_dim=3 * board * board,
                            rows_per_request=3, request_deadline_us=2_000.0, seed=5)
    run_serving(server, loadgen, 6_000.0)
    # Three-row requests split across four-row batches, and some are shed.
    assert server.stats.served > 0 and server.stats.shed_queue > 0
    text = "\n".join(server.decision_log_lines()) + "\n" + repr(asdict(server.stats))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == SERVE_PATH_SHA256["max-batch-server"]
