"""Scheduler sweep: sequential vs event-driven pool at each leaf batch size.

Both settings run the pool's workers under one
:class:`~repro.rollout.scheduler.PoolScheduler`, which interleaves them at
wave granularity and serves the shared :class:`InferenceService` only when
every runnable worker is blocked on inference.  The ``sequential`` setting
serves every ticket alone (the ``unbatched`` flush policy), so its win is
capped at one worker's ``leaf_batch``; the ``event`` setting batches the
queue — one engine call then carries leaves from many workers at the same
virtual instant, the way a real inference server batches across client
processes.

This sweep runs the pool under both schedulers for each ``leaf_batch`` and
reports, per point, the engine calls issued, the share of batches serving
more than one worker, batch occupancy, and the queueing delay the
event-driven model charges (the sequential model hides replica contention
entirely, which is why its collection span can look *shorter* while issuing
many times more engine calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..minigo.workers import SCHEDULER_EVENT, SCHEDULER_SEQUENTIAL, SelfPlayPool
from ..rollout.inference import FLUSH_MAX_BATCH, ROUTING_ROUND_ROBIN

#: The sweep the paper-style report covers.
DEFAULT_SCHED_LEAF_BATCHES = (1, 4, 8)
DEFAULT_SCHED_WORKERS = 8


@dataclass
class SchedSweepPoint:
    """One (scheduler, leaf_batch) setting's measurements."""

    scheduler: str
    leaf_batch: int
    engine_calls: int
    rows: int
    cross_worker_batches: int
    mean_batch_rows: float
    mean_occupancy: float
    mean_queue_delay_us: float
    moves: int
    span_us: float           #: parallel collection span (slowest worker)
    #: Per-replica roll-ups (index-aligned; single-entry lists with the
    #: default unsharded service, empty when constructed without them).
    replica_calls: List[int] = field(default_factory=list)
    replica_utilisation: List[float] = field(default_factory=list)
    routing_decisions: List[int] = field(default_factory=list)

    @property
    def cross_worker_share(self) -> float:
        return self.cross_worker_batches / self.engine_calls if self.engine_calls else 0.0

    @property
    def calls_per_row(self) -> float:
        return self.engine_calls / self.rows if self.rows else 0.0


@dataclass
class SchedSweepResult:
    num_workers: int
    flush_policy: str
    flush_timeout_us: Optional[float]
    points: List[SchedSweepPoint]
    num_replicas: int = 1
    routing: str = ROUTING_ROUND_ROBIN

    def point(self, scheduler: str, leaf_batch: int) -> SchedSweepPoint:
        for point in self.points:
            if point.scheduler == scheduler and point.leaf_batch == leaf_batch:
                return point
        raise KeyError(f"no sweep point for scheduler={scheduler!r}, leaf_batch={leaf_batch}")

    def call_reduction(self, leaf_batch: int) -> float:
        """Engine calls per evaluated row: sequential over event-driven.

        Normalised per row because cross-worker coalescing perturbs network
        outputs at the ulp level, so trajectories (and row counts) can
        differ slightly between the two schedulers."""
        sequential = self.point(SCHEDULER_SEQUENTIAL, leaf_batch)
        event = self.point(SCHEDULER_EVENT, leaf_batch)
        return sequential.calls_per_row / event.calls_per_row if event.calls_per_row else 0.0

    def raw_call_reduction(self, leaf_batch: int) -> float:
        sequential = self.point(SCHEDULER_SEQUENTIAL, leaf_batch)
        event = self.point(SCHEDULER_EVENT, leaf_batch)
        return sequential.engine_calls / event.engine_calls if event.engine_calls else 0.0

    def report(self) -> str:
        header = (f"{'scheduler':>10} {'leaf_batch':>10} {'engine calls':>12} "
                  f"{'mean batch':>10} {'occupancy':>9} {'x-worker %':>10} "
                  f"{'queue delay':>11} {'span (s)':>9} {'moves':>6}")
        policy = self.flush_policy
        if self.flush_timeout_us is not None:
            policy += f" (timeout {self.flush_timeout_us:.0f}us)"
        replicas = ("one shared inference replica" if self.num_replicas == 1 else
                    f"{self.num_replicas} inference replicas ({self.routing} routing)")
        lines = [
            f"Scheduler sweep: {self.num_workers} self-play workers, "
            f"{replicas}, flush policy {policy}",
            header,
        ]
        for point in self.points:
            delay = (f"{point.mean_queue_delay_us:>9.1f}us"
                     if point.scheduler == SCHEDULER_EVENT else f"{'-':>11}")
            lines.append(
                f"{point.scheduler:>10} {point.leaf_batch:>10d} {point.engine_calls:>12d} "
                f"{point.mean_batch_rows:>10.2f} {point.mean_occupancy:>9.1%} "
                f"{100.0 * point.cross_worker_share:>9.1f}% "
                f"{delay} {point.span_us / 1e6:>9.3f} {point.moves:>6d}")
            if self.num_replicas > 1:
                # Per-replica utilisation / routed-batch counts so routing
                # imbalance is visible at a glance (zip tolerates points
                # constructed without the per-replica columns).
                per_replica = zip(point.routing_decisions, point.replica_calls,
                                  point.replica_utilisation)
                for index, (routed, calls, util) in enumerate(per_replica):
                    lines.append(
                        f"{'':>21} replica_{index}: routed={routed:<4d} "
                        f"calls={calls:<4d} utilisation={util:.1%}")
        best = max(point.leaf_batch for point in self.points)
        event = self.point(SCHEDULER_EVENT, best)
        lines.append(
            f"event-driven at leaf_batch={best}: {self.call_reduction(best):.1f}x fewer engine "
            f"calls per row than the sequential scheduler "
            f"({self.raw_call_reduction(best):.1f}x fewer total), "
            f"{100.0 * event.cross_worker_share:.1f}% of batches cross-worker, "
            f"mean occupancy {event.mean_occupancy:.1%}")
        lines.append(
            "note: the event-driven span includes replica queueing delay the "
            "sequential model does not charge (its workers never contend for "
            "the shared replica)")
        return "\n".join(lines)


def run_sched_sweep(
    leaf_batches: Sequence[int] = DEFAULT_SCHED_LEAF_BATCHES,
    *,
    num_workers: int = DEFAULT_SCHED_WORKERS,
    board_size: int = 5,
    num_simulations: int = 16,
    games_per_worker: int = 1,
    max_moves: Optional[int] = 10,
    hidden: tuple = (32, 32),
    inference_max_batch: int = 64,
    num_replicas: int = 1,
    routing: str = ROUTING_ROUND_ROBIN,
    flush_policy: str = FLUSH_MAX_BATCH,
    flush_timeout_us: Optional[float] = None,
    seed: int = 0,
) -> SchedSweepResult:
    """Run the pool under both schedulers for every leaf_batch value."""
    if not leaf_batches:
        raise ValueError("leaf_batches must not be empty")
    points: List[SchedSweepPoint] = []
    for leaf_batch in leaf_batches:
        for scheduler in (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT):
            pool = SelfPlayPool(
                num_workers,
                board_size=board_size,
                num_simulations=num_simulations,
                games_per_worker=games_per_worker,
                max_moves=max_moves,
                hidden=hidden,
                profile=False,
                seed=seed,
                batched_inference=True,
                leaf_batch=leaf_batch,
                inference_max_batch=inference_max_batch,
                num_replicas=num_replicas,
                routing=routing,
                scheduler=scheduler,
                flush_policy=flush_policy,
                flush_timeout_us=flush_timeout_us,
            )
            pool.run()
            service = pool.inference_service
            stats = service.stats
            span_us = pool.collection_span_us()
            points.append(SchedSweepPoint(
                scheduler=scheduler,
                leaf_batch=leaf_batch,
                engine_calls=stats.engine_calls,
                rows=stats.rows,
                cross_worker_batches=stats.cross_worker_batches,
                mean_batch_rows=stats.mean_batch_rows,
                mean_occupancy=stats.mean_occupancy,
                mean_queue_delay_us=stats.mean_queue_delay_us,
                moves=sum(run.result.moves for run in pool.runs),
                span_us=span_us,
                replica_calls=[r.stats.engine_calls for r in service.replicas],
                replica_utilisation=service.replica_utilisation(span_us),
                routing_decisions=service.routing_decisions(),
            ))
    return SchedSweepResult(num_workers=num_workers, flush_policy=flush_policy,
                            flush_timeout_us=flush_timeout_us, points=points,
                            num_replicas=num_replicas, routing=routing)
