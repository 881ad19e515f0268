"""Batch-size sweep: batched cross-worker inference vs per-leaf evaluation.

Runs the Minigo parallel self-play pool once per ``leaf_batch`` value with
leaf evaluation routed through the shared :class:`InferenceService`, and
reports, for each point, the number of batched engine calls, self-play
throughput, and the CPU/GPU overlap profile of the collection phase.  At
``leaf_batch=1`` the batched service reproduces the legacy per-leaf game
records exactly, so that point doubles as the baseline: every reduction in
engine calls at larger batches is attributable to coalescing alone.

This module also holds what the batch, scheduler and replica sweeps share:
:func:`run_pool`, :func:`pool_metrics` and their :class:`PoolPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..minigo.workers import SelfPlayPool
from ..profiler.columns import TraceColumns
from ..profiler.overlap import (
    RESOURCE_CPU,
    RESOURCE_CPU_GPU,
    RESOURCE_GPU,
    compute_overlap,
)
from .sweep import SweepResult

#: The sweep the paper-style report covers.
DEFAULT_BATCH_KWARGS = dict(
    leaf_batches=(1, 4, 16, 64),
    num_workers=4,
    board_size=5,
    num_simulations=16,
    games_per_worker=1,
    max_moves=10,
    hidden=(32, 32),
    inference_max_batch=64,
    seed=0,
)

#: Sweep config keys that are :class:`SelfPlayPool` keyword arguments.
_POOL_ARGS = ("board_size", "num_simulations", "games_per_worker", "max_moves", "hidden",
              "inference_max_batch", "num_replicas", "routing", "flush_policy",
              "flush_timeout_us", "leaf_batch", "cost_config", "seed")


def run_pool(config: Dict[str, Any], num_workers: int, **pool_kwargs) -> SelfPlayPool:
    """Run one batched self-play pool shaped by a pool sweep's ``config``."""
    shape = {key: config[key] for key in _POOL_ARGS if key in config}
    pool = SelfPlayPool(num_workers, batched_inference=True, **{**shape, **pool_kwargs})
    pool.run()
    return pool


@dataclass
class PoolPoint:
    """The service, scheduler and per-replica measurements of one pool run."""

    engine_calls: int        #: batched network calls issued by the service
    rows: int                #: leaf positions evaluated
    cross_worker_batches: int
    mean_occupancy: float
    mean_queue_delay_us: float
    moves: int               #: self-play moves generated across the pool
    span_us: float           #: parallel collection span (slowest worker)
    eager_serves: int        #: full-batch serves issued while workers ran
    replica_calls: List[int]           #: engine calls per replica (index-aligned)
    replica_rows: List[int]            #: rows per replica
    replica_occupancy: List[float]     #: mean batch fill per replica
    replica_utilisation: List[float]   #: busy fraction of the span per replica
    routing_decisions: List[int]       #: batches the policy routed per replica

    @property
    def mean_batch_rows(self) -> float:
        return self.rows / self.engine_calls if self.engine_calls else 0.0

    @property
    def cross_worker_share(self) -> float:
        return self.cross_worker_batches / self.engine_calls if self.engine_calls else 0.0

    @property
    def calls_per_row(self) -> float:
        return self.engine_calls / self.rows if self.rows else 0.0

    @property
    def moves_per_sec(self) -> float:
        return self.moves / (self.span_us / 1e6) if self.span_us > 0 else 0.0


def pool_metrics(pool: SelfPlayPool) -> Dict[str, Any]:
    """The :class:`PoolPoint` fields of a finished pool."""
    service = pool.inference_service
    stats = service.stats
    span_us = pool.collection_span_us()
    return dict(
        engine_calls=stats.engine_calls,
        rows=stats.rows,
        cross_worker_batches=stats.cross_worker_batches,
        mean_occupancy=stats.mean_occupancy,
        mean_queue_delay_us=stats.mean_queue_delay_us,
        moves=sum(run.result.moves for run in pool.runs),
        span_us=span_us,
        eager_serves=pool.pool_scheduler.stats.eager_serves,
        replica_calls=[r.stats.engine_calls for r in service.replicas],
        replica_rows=[r.stats.rows for r in service.replicas],
        replica_occupancy=[r.stats.mean_occupancy for r in service.replicas],
        replica_utilisation=service.replica_utilisation(span_us),
        routing_decisions=service.routing_decisions(),
    )


@dataclass
class BatchSweepPoint(PoolPoint):
    """One leaf_batch setting's measurements."""

    leaf_batch: int
    cpu_only_us: float
    gpu_only_us: float
    cpu_gpu_us: float

    def pct(self, value: float) -> float:
        """``value`` as a percentage of the tracked time."""
        total = self.cpu_only_us + self.gpu_only_us + self.cpu_gpu_us
        return 100.0 * value / total if total > 0 else 0.0


class BatchSweepResult(SweepResult):
    """Run the pool once per leaf_batch value and collect the sweep table."""

    defaults = DEFAULT_BATCH_KWARGS
    axes = (("leaf_batch", "leaf_batches"),)
    point_type = BatchSweepPoint
    columns = (
        ("leaf_batch", 10, "{p.leaf_batch:d}"),
        ("engine calls", 12, "{p.engine_calls:d}"),
        ("mean batch", 10, "{p.mean_batch_rows:.2f}"),
        ("calls/row x", 11, lambda r, p: f"{r.call_reduction(p.leaf_batch):.1f}x"),
        ("span (s)", 9, lambda r, p: f"{p.span_us / 1e6:.3f}"),
        ("moves/s", 8, "{p.moves_per_sec:.1f}"),
        ("CPU-only %", 10, lambda r, p: f"{p.pct(p.cpu_only_us):.1f}"),
        ("CPU+GPU %", 9, lambda r, p: f"{p.pct(p.cpu_gpu_us):.1f}"),
        ("GPU-only %", 10, lambda r, p: f"{p.pct(p.gpu_only_us):.1f}"),
    )

    def cell(self, leaf_batch: int) -> Dict[str, Any]:
        pool = run_pool(self.config, self.num_workers, leaf_batch=leaf_batch,
                        profile=True)
        overlap = compute_overlap(TraceColumns.concat([run.trace.columns for run in pool.runs]))
        busy = dict(cpu_only_us=RESOURCE_CPU, gpu_only_us=RESOURCE_GPU,
                    cpu_gpu_us=RESOURCE_CPU_GPU)
        return dict(pool_metrics(pool), **{
            name: overlap.resource_time_us(resource, include_untracked=False)
            for name, resource in busy.items()})

    @property
    def baseline(self) -> BatchSweepPoint:
        """The smallest-batch point of the sweep (leaf_batch=1 = per-leaf)."""
        return min(self.points, key=lambda point: point.leaf_batch)

    def call_reduction(self, leaf_batch: int) -> float:
        """How many times fewer engine calls than the per-leaf baseline,
        normalised per evaluated row (trajectories differ across batches)."""
        base = self.baseline
        point = self.point(leaf_batch)
        base_calls_per_row = base.engine_calls / max(base.rows, 1)
        point_calls_per_row = point.engine_calls / max(point.rows, 1)
        return base_calls_per_row / point_calls_per_row if point_calls_per_row else 0.0

    def speedup(self, leaf_batch: int) -> float:
        base = self.baseline
        return base.span_us / self.point(leaf_batch).span_us if self.point(leaf_batch).span_us else 0.0

    def title(self):
        return ["Batch-size sweep: batched cross-worker inference (shared engine)"]

    def footer(self):
        best = max(self.points, key=lambda point: point.leaf_batch)
        base = self.baseline
        base_label = ("per-leaf evaluation" if base.leaf_batch == 1
                      else f"the leaf_batch={base.leaf_batch} baseline")
        return [
            f"largest batch ({best.leaf_batch}): {self.call_reduction(best.leaf_batch):.1f}x fewer "
            f"engine calls per row, {self.speedup(best.leaf_batch):.2f}x collection speedup "
            f"vs {base_label}"]


run_batch_sweep = BatchSweepResult.run
