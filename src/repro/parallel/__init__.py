"""Multiprocess sharded rollout execution with virtual-timeline merge.

The pools in :mod:`repro.minigo.workers` and :mod:`repro.rollout.pool`
simulate ``num_workers`` parallel worker "processes" inside one interpreter
— faithful, but serialized on one core.  This package runs the same
simulation on real OS processes without changing a single scheduling or
timing decision:

* each shard process (:mod:`~repro.parallel.shard`) builds a subset of the
  pool's worker stacks through the single-process run's own build path and
  advances their drivers independently between inference serves;
* the parent (:mod:`~repro.parallel.proxy`, :mod:`~repro.parallel.runner`)
  replays the shards' per-step clock records through proxy drivers under
  the real :class:`~repro.rollout.scheduler.PoolScheduler` and the real
  batch-planning/routing/stats code, shipping only the batched engine
  calls back to the host worker's shard.

``num_processes=1`` (or the ``inline`` backend) reproduces the sequential
event loop bit-for-bit — game records, per-worker clocks, scheduler
decisions, service stats; ``num_processes=N`` changes nothing but the
wall-clock. Enabled via ``SelfPlayPool(..., num_processes=N)`` and
``EnvRolloutPool(..., num_processes=N)``, whose shared core
(:class:`~repro.rollout.pool.WorkerPool`) drives the parent side.
"""

from .proxy import MirrorInferenceService, ProxyDriver
from .runner import BACKENDS, ParallelRunner, assign_workers
from .shard import ShardSpec, WorkerShard

__all__ = [
    "BACKENDS",
    "MirrorInferenceService",
    "ParallelRunner",
    "ProxyDriver",
    "ShardSpec",
    "WorkerShard",
    "assign_workers",
]
