"""Replica sweep: sharded inference scaling over replicas × workers × routing.

PR 3's event-driven pool batched leaf evaluations across workers, but every
batch still serialized through a single model replica's ``free_us`` horizon —
the virtual-time model's picture of one inference GPU saturating.  The
sharded :class:`~repro.rollout.inference.InferenceService` fans batches out
across ``num_replicas`` replicas (each pinned to its own device/system)
under a pluggable routing policy, and the replica-aware
:class:`~repro.rollout.scheduler.PoolScheduler` serves full batches eagerly so
free replicas overlap in-flight work with still-running workers.

This sweep measures that scale-out on an **inference-bound** configuration
(tree-search Python work priced near zero, so the replica horizon is the
bottleneck — the regime where a real deployment adds GPUs): for each
(workers, replicas, routing) point it reports the virtual collection span,
the speedup over the single-replica baseline with the same worker count,
and the per-replica utilisation / routed-batch counts that make routing
imbalance visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hw.costmodel import CostModelConfig
from ..minigo.workers import SCHEDULER_EVENT, SelfPlayPool
from ..rollout.inference import FLUSH_TIMEOUT, ROUTING_ROUND_ROBIN

#: The grid the paper-style report covers.
DEFAULT_REPLICA_COUNTS = (1, 2, 4)
DEFAULT_REPLICA_ROUTINGS = ("round-robin", "least-loaded", "sticky")
DEFAULT_REPLICA_WORKERS = (4, 8)

#: Pool shape of the default sweep (and of ``benchmarks/test_bench_replicas.py``).
DEFAULT_REPLICA_POOL_KWARGS = dict(
    board_size=5,
    num_simulations=32,
    games_per_worker=1,
    max_moves=8,
    hidden=(64, 64),
    leaf_batch=8,
    inference_max_batch=8,
    flush_policy=FLUSH_TIMEOUT,
    flush_timeout_us=50.0,
)


def inference_bound_cost_config() -> CostModelConfig:
    """Cost model that makes self-play inference-bound.

    Interpreted-Python tree-search work is priced at (virtually) zero while
    backend dispatch, CUDA API and kernel costs keep their defaults, so the
    collection span is dominated by the inference service's replica
    horizons — the regime in which sharding the model across GPUs pays off.
    """
    return CostModelConfig(python_op_us=0.001)


@dataclass
class ReplicaSweepPoint:
    """One (workers, replicas, routing) setting's measurements."""

    num_workers: int
    num_replicas: int
    routing: str
    engine_calls: int
    rows: int
    mean_batch_rows: float
    mean_occupancy: float
    cross_worker_share: float
    mean_queue_delay_us: float
    span_us: float             #: parallel collection span (slowest worker)
    moves: int
    eager_serves: int          #: full-batch serves issued while workers ran
    replica_calls: List[int]           #: engine calls per replica (index-aligned)
    replica_rows: List[int]            #: rows per replica
    replica_occupancy: List[float]     #: mean batch fill per replica
    replica_utilisation: List[float]   #: busy fraction of the span per replica
    routing_decisions: List[int]       #: batches the policy routed per replica


@dataclass
class ReplicaSweepResult:
    leaf_batch: int
    inference_max_batch: int
    flush_policy: str
    flush_timeout_us: Optional[float]
    points: List[ReplicaSweepPoint]

    def point(self, num_workers: int, num_replicas: int, routing: str) -> ReplicaSweepPoint:
        for point in self.points:
            if (point.num_workers == num_workers and point.num_replicas == num_replicas
                    and point.routing == routing):
                return point
        raise KeyError(f"no sweep point for workers={num_workers}, "
                       f"replicas={num_replicas}, routing={routing!r}")

    def speedup(self, num_workers: int, num_replicas: int, routing: str) -> float:
        """Collection-span improvement over the 1-replica baseline (same workers)."""
        baseline = self.point(num_workers, 1, ROUTING_ROUND_ROBIN)
        point = self.point(num_workers, num_replicas, routing)
        return baseline.span_us / point.span_us if point.span_us else 0.0

    def report(self) -> str:
        policy = self.flush_policy
        if self.flush_timeout_us is not None:
            policy += f" (timeout {self.flush_timeout_us:.0f}us)"
        header = (f"{'workers':>7} {'replicas':>8} {'routing':>12} {'calls':>6} "
                  f"{'mean batch':>10} {'occupancy':>9} {'x-worker %':>10} "
                  f"{'queue delay':>11} {'span (ms)':>9} {'speedup':>7}")
        lines = [
            f"Replica sweep: sharded inference service, leaf_batch={self.leaf_batch}, "
            f"max_batch={self.inference_max_batch}, flush policy {policy}, "
            f"inference-bound cost model",
            header,
        ]
        for point in self.points:
            speedup = self.speedup(point.num_workers, point.num_replicas, point.routing)
            lines.append(
                f"{point.num_workers:>7d} {point.num_replicas:>8d} {point.routing:>12} "
                f"{point.engine_calls:>6d} {point.mean_batch_rows:>10.2f} "
                f"{point.mean_occupancy:>9.1%} {100.0 * point.cross_worker_share:>9.1f}% "
                f"{point.mean_queue_delay_us:>9.1f}us {point.span_us / 1e3:>9.3f} "
                f"{speedup:>6.2f}x")
            # Per-replica utilisation and routing decisions: imbalance shows
            # up as skewed routed/util columns (satellite requirement).
            for index in range(point.num_replicas):
                lines.append(
                    f"{'':>16} replica_{index}: routed={point.routing_decisions[index]:<4d} "
                    f"calls={point.replica_calls[index]:<4d} rows={point.replica_rows[index]:<5d} "
                    f"occupancy={point.replica_occupancy[index]:.1%} "
                    f"utilisation={point.replica_utilisation[index]:.1%}")
        best_workers = max(point.num_workers for point in self.points)
        best = max((p for p in self.points if p.num_workers == best_workers),
                   key=lambda p: self.speedup(p.num_workers, p.num_replicas, p.routing))
        lines.append(
            f"best at {best_workers} workers: {best.num_replicas} replicas / {best.routing} — "
            f"{self.speedup(best.num_workers, best.num_replicas, best.routing):.2f}x shorter "
            f"collection span than one replica, mean per-replica utilisation "
            f"{sum(best.replica_utilisation) / len(best.replica_utilisation):.1%}")
        lines.append(
            "note: spans include the queueing delay batches pay on their routed "
            "replica's horizon; eager full-batch serves let free replicas start "
            "while other workers still run")
        return "\n".join(lines)


def run_replica_sweep(
    replica_counts: Sequence[int] = DEFAULT_REPLICA_COUNTS,
    *,
    worker_counts: Sequence[int] = DEFAULT_REPLICA_WORKERS,
    routings: Sequence[str] = DEFAULT_REPLICA_ROUTINGS,
    board_size: int = DEFAULT_REPLICA_POOL_KWARGS["board_size"],
    num_simulations: int = DEFAULT_REPLICA_POOL_KWARGS["num_simulations"],
    games_per_worker: int = DEFAULT_REPLICA_POOL_KWARGS["games_per_worker"],
    max_moves: Optional[int] = DEFAULT_REPLICA_POOL_KWARGS["max_moves"],
    hidden: tuple = DEFAULT_REPLICA_POOL_KWARGS["hidden"],
    leaf_batch: int = DEFAULT_REPLICA_POOL_KWARGS["leaf_batch"],
    inference_max_batch: int = DEFAULT_REPLICA_POOL_KWARGS["inference_max_batch"],
    flush_policy: str = DEFAULT_REPLICA_POOL_KWARGS["flush_policy"],
    flush_timeout_us: Optional[float] = DEFAULT_REPLICA_POOL_KWARGS["flush_timeout_us"],
    cost_config: Optional[CostModelConfig] = None,
    seed: int = 0,
) -> ReplicaSweepResult:
    """Run the event-driven pool over the (workers, replicas, routing) grid.

    Every point with more than one replica is run under every routing
    policy; the single-replica baseline is run once per worker count (all
    routing policies degenerate to replica 0 there, bit-for-bit).
    """
    if not replica_counts:
        raise ValueError("replica_counts must not be empty")
    if 1 not in replica_counts:
        replica_counts = (1, *replica_counts)
    if not worker_counts or not routings:
        raise ValueError("worker_counts and routings must not be empty")
    cost_config = cost_config if cost_config is not None else inference_bound_cost_config()
    points: List[ReplicaSweepPoint] = []
    for num_workers in worker_counts:
        for num_replicas in sorted(set(replica_counts)):
            for routing in ((ROUTING_ROUND_ROBIN,) if num_replicas == 1 else tuple(routings)):
                pool = SelfPlayPool(
                    num_workers,
                    board_size=board_size,
                    num_simulations=num_simulations,
                    games_per_worker=games_per_worker,
                    max_moves=max_moves,
                    hidden=hidden,
                    profile=False,
                    cost_config=cost_config,
                    seed=seed,
                    batched_inference=True,
                    leaf_batch=leaf_batch,
                    inference_max_batch=inference_max_batch,
                    num_replicas=num_replicas,
                    routing=routing,
                    scheduler=SCHEDULER_EVENT,
                    flush_policy=flush_policy,
                    flush_timeout_us=flush_timeout_us,
                )
                pool.run()
                service = pool.inference_service
                span_us = pool.collection_span_us()
                points.append(ReplicaSweepPoint(
                    num_workers=num_workers,
                    num_replicas=num_replicas,
                    routing=routing,
                    engine_calls=service.stats.engine_calls,
                    rows=service.stats.rows,
                    mean_batch_rows=service.stats.mean_batch_rows,
                    mean_occupancy=service.stats.mean_occupancy,
                    cross_worker_share=service.stats.cross_worker_share,
                    mean_queue_delay_us=service.stats.mean_queue_delay_us,
                    span_us=span_us,
                    moves=sum(run.result.moves for run in pool.runs),
                    eager_serves=pool.pool_scheduler.stats.eager_serves,
                    replica_calls=[r.stats.engine_calls for r in service.replicas],
                    replica_rows=[r.stats.rows for r in service.replicas],
                    replica_occupancy=[r.stats.mean_occupancy for r in service.replicas],
                    replica_utilisation=service.replica_utilisation(span_us),
                    routing_decisions=service.routing_decisions(),
                ))
    return ReplicaSweepResult(leaf_batch=leaf_batch, inference_max_batch=inference_max_batch,
                              flush_policy=flush_policy, flush_timeout_us=flush_timeout_us,
                              points=points)
