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
from typing import Any, Dict

from ..hw.costmodel import CostModelConfig
from ..minigo.workers import SCHEDULER_EVENT
from ..rollout.inference import FLUSH_TIMEOUT, ROUTING_ROUND_ROBIN
from .batchsweep import PoolPoint, pool_metrics, run_pool
from .schedsweep import flush_policy_text
from .sweep import SweepResult

#: The grid the paper-style report covers and its pool shape (also that of
#: ``benchmarks/test_bench_replicas.py``); ``cost_config=None`` is
#: :func:`inference_bound_cost_config`.
DEFAULT_REPLICA_POOL_KWARGS = dict(
    replica_counts=(1, 2, 4),
    worker_counts=(4, 8),
    routings=("round-robin", "least-loaded", "sticky"),
    board_size=5,
    num_simulations=32,
    games_per_worker=1,
    max_moves=8,
    hidden=(64, 64),
    leaf_batch=8,
    inference_max_batch=8,
    flush_policy=FLUSH_TIMEOUT,
    flush_timeout_us=50.0,
    cost_config=None,
    seed=0,
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
class ReplicaSweepPoint(PoolPoint):
    """One (workers, replicas, routing) setting's measurements."""

    num_workers: int
    num_replicas: int
    routing: str


class ReplicaSweepResult(SweepResult):
    """Every point with more than one replica runs under every routing
    policy; the single-replica baseline runs once per worker count (all
    routing policies degenerate to replica 0 there, bit-for-bit)."""

    defaults = DEFAULT_REPLICA_POOL_KWARGS
    axes = (("num_workers", "worker_counts"),
            ("num_replicas", "replica_counts", lambda counts, _: sorted({1, *counts})),
            ("routing", "routings", lambda routings, coords: (
                (ROUTING_ROUND_ROBIN,) if coords["num_replicas"] == 1 else tuple(routings))))
    point_type = ReplicaSweepPoint
    columns = (
        ("workers", 7, "{p.num_workers:d}"),
        ("replicas", 8, "{p.num_replicas:d}"),
        ("routing", 12, "{p.routing}"),
        ("calls", 6, "{p.engine_calls:d}"),
        ("mean batch", 10, "{p.mean_batch_rows:.2f}"),
        ("occupancy", 9, "{p.mean_occupancy:.1%}"),
        ("x-worker %", 10, "{p.cross_worker_share:.1%}"),
        ("queue delay", 11, "{p.mean_queue_delay_us:.1f}us"),
        ("span (ms)", 9, lambda r, p: f"{p.span_us / 1e3:.3f}"),
        ("speedup", 7, lambda r, p: f"{r.speedup(p.num_workers, p.num_replicas, p.routing):.2f}x"),
    )

    def setup(self) -> None:
        if self.cost_config is None:
            self.config["cost_config"] = inference_bound_cost_config()

    def cell(self, num_workers: int, num_replicas: int, routing: str) -> Dict[str, Any]:
        return pool_metrics(run_pool(self.config, num_workers, num_replicas=num_replicas,
                                     routing=routing, scheduler=SCHEDULER_EVENT,
                                     profile=False))

    def speedup(self, num_workers: int, num_replicas: int, routing: str) -> float:
        """Collection-span improvement over the 1-replica baseline (same workers)."""
        baseline = self.point(num_workers, 1, ROUTING_ROUND_ROBIN)
        point = self.point(num_workers, num_replicas, routing)
        return baseline.span_us / point.span_us if point.span_us else 0.0

    def title(self):
        return [f"Replica sweep: sharded inference service, leaf_batch={self.leaf_batch}, "
                f"max_batch={self.inference_max_batch}, flush policy "
                f"{flush_policy_text(self.config)}, inference-bound cost model"]

    def details(self, p):
        return [f"{'':>16} replica_{index}: routed={p.routing_decisions[index]:<4d} "
                f"calls={p.replica_calls[index]:<4d} rows={p.replica_rows[index]:<5d} "
                f"occupancy={p.replica_occupancy[index]:.1%} "
                f"utilisation={p.replica_utilisation[index]:.1%}"
                for index in range(p.num_replicas)]

    def footer(self):
        best_workers = max(point.num_workers for point in self.points)
        best = max((p for p in self.points if p.num_workers == best_workers),
                   key=lambda p: self.speedup(p.num_workers, p.num_replicas, p.routing))
        return [
            f"best at {best_workers} workers: {best.num_replicas} replicas / {best.routing} — "
            f"{self.speedup(best.num_workers, best.num_replicas, best.routing):.2f}x shorter "
            f"collection span than one replica, mean per-replica utilisation "
            f"{sum(best.replica_utilisation) / len(best.replica_utilisation):.1%}",
            "note: spans include the queueing delay batches pay on their routed "
            "replica's horizon; eager full-batch serves let free replicas start "
            "while other workers still run"]


def run_replica_sweep(*grid, **overrides) -> ReplicaSweepResult:
    """Run the event-driven pool over the (workers, replicas, routing) grid
    (see :meth:`SweepResult.run`).

    The default ``flush_timeout_us`` belongs to the default ``timeout``
    flush policy: another ``flush_policy`` runs without one unless a
    timeout is given too.
    """
    if overrides.get("flush_policy", FLUSH_TIMEOUT) != FLUSH_TIMEOUT:
        overrides.setdefault("flush_timeout_us", None)
    return ReplicaSweepResult.run(*grid, **overrides)
