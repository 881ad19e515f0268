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

from dataclasses import dataclass
from typing import Any, Dict

from ..minigo.workers import SCHEDULER_EVENT, SCHEDULER_SEQUENTIAL
from ..rollout.inference import FLUSH_MAX_BATCH, ROUTING_ROUND_ROBIN
from .batchsweep import DEFAULT_BATCH_KWARGS, PoolPoint, pool_metrics, run_pool
from .sweep import SweepResult

#: The sweep the paper-style report covers.
DEFAULT_SCHED_KWARGS = dict(
    DEFAULT_BATCH_KWARGS,
    leaf_batches=(1, 4, 8),
    num_workers=8,
    num_replicas=1,
    routing=ROUTING_ROUND_ROBIN,
    flush_policy=FLUSH_MAX_BATCH,
    flush_timeout_us=None,
)


@dataclass
class SchedSweepPoint(PoolPoint):
    """One (scheduler, leaf_batch) setting's measurements."""

    scheduler: str
    leaf_batch: int


def flush_policy_text(config: Dict[str, Any]) -> str:
    """The flush policy of a pool sweep, with its timeout when one is set."""
    policy = config["flush_policy"]
    if config["flush_timeout_us"] is not None:
        policy += f" (timeout {config['flush_timeout_us']:.0f}us)"
    return policy


class SchedSweepResult(SweepResult):
    """Run the pool under both schedulers for every leaf_batch value."""

    defaults = DEFAULT_SCHED_KWARGS
    axes = (("leaf_batch", "leaf_batches"),
            ("scheduler", (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT)))
    point_type = SchedSweepPoint
    key = ("scheduler", "leaf_batch")
    columns = (
        ("scheduler", 10, "{p.scheduler}"),
        ("leaf_batch", 10, "{p.leaf_batch:d}"),
        ("engine calls", 12, "{p.engine_calls:d}"),
        ("mean batch", 10, "{p.mean_batch_rows:.2f}"),
        ("occupancy", 9, "{p.mean_occupancy:.1%}"),
        ("x-worker %", 10, "{p.cross_worker_share:.1%}"),
        ("queue delay", 11, lambda r, p: (f"{p.mean_queue_delay_us:.1f}us"
                                          if p.scheduler == SCHEDULER_EVENT else "-")),
        ("span (s)", 9, lambda r, p: f"{p.span_us / 1e6:.3f}"),
        ("moves", 6, "{p.moves:d}"),
    )

    def cell(self, leaf_batch: int, scheduler: str) -> Dict[str, Any]:
        return pool_metrics(run_pool(self.config, self.num_workers,
                                     leaf_batch=leaf_batch, scheduler=scheduler,
                                     profile=False))

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

    def title(self):
        replicas = ("one shared inference replica" if self.num_replicas == 1 else
                    f"{self.num_replicas} inference replicas ({self.routing} routing)")
        return [f"Scheduler sweep: {self.num_workers} self-play workers, "
                f"{replicas}, flush policy {flush_policy_text(self.config)}"]

    def details(self, point):
        if self.num_replicas == 1:
            return []
        per_replica = zip(point.routing_decisions, point.replica_calls,
                          point.replica_utilisation)
        return [f"{'':>21} replica_{index}: routed={routed:<4d} calls={calls:<4d} "
                f"utilisation={util:.1%}"
                for index, (routed, calls, util) in enumerate(per_replica)]

    def footer(self):
        best = max(point.leaf_batch for point in self.points)
        event = self.point(SCHEDULER_EVENT, best)
        return [
            f"event-driven at leaf_batch={best}: {self.call_reduction(best):.1f}x fewer engine "
            f"calls per row than the sequential scheduler "
            f"({self.raw_call_reduction(best):.1f}x fewer total), "
            f"{100.0 * event.cross_worker_share:.1f}% of batches cross-worker, "
            f"mean occupancy {event.mean_occupancy:.1%}",
            "note: the event-driven span includes replica queueing delay the "
            "sequential model does not charge (its workers never contend for "
            "the shared replica)"]


run_sched_sweep = SchedSweepResult.run
