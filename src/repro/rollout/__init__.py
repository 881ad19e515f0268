"""Env-agnostic rollout core: stepwise drivers, the virtual-time pool scheduler,
and the batched/sharded inference service they share.

Extracted from the Minigo workload (PRs 2–5) so every simulator in
``repro.sim.registry`` and every algorithm in ``repro.rl`` can ride the
same scaled data-collection path: drivers suspend at inference boundaries,
the scheduler interleaves them in virtual-time order, and the shared
service batches their policy evaluations across workers and replicas.
"""

from .driver import StepwiseDriver
from .envdriver import (
    OP_INFERENCE,
    OP_SIMULATION,
    PHASE_DATA_COLLECTION,
    ActionPolicy,
    EnvRolloutDriver,
    EnvRolloutResult,
    EpsilonGreedyPolicy,
    GaussianNoisePolicy,
    SampledDiscretePolicy,
    Transition,
)
from .inference import (
    EVALUATE_FUNCTION_NAME,
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
    ROUTING_LEAST_LOADED,
    ROUTING_POLICIES,
    ROUTING_ROUND_ROBIN,
    ROUTING_STICKY,
    BatchSizeStats,
    InferenceClient,
    InferenceService,
    InferenceStats,
    InferenceTicket,
    LeastLoadedRouting,
    ModelReplica,
    ReservoirSample,
    RoundRobinRouting,
    RoutingPolicy,
    StickyRouting,
    make_routing_policy,
)
from .pool import EnvRolloutPool, PoolConfig, WorkerPool, WorkerRun
from .scheduler import PoolScheduler, SchedulerStats

__all__ = [
    "StepwiseDriver",
    "OP_INFERENCE",
    "OP_SIMULATION",
    "PHASE_DATA_COLLECTION",
    "ActionPolicy",
    "EnvRolloutDriver",
    "EnvRolloutResult",
    "EpsilonGreedyPolicy",
    "GaussianNoisePolicy",
    "SampledDiscretePolicy",
    "Transition",
    "EVALUATE_FUNCTION_NAME",
    "FLUSH_MAX_BATCH",
    "FLUSH_POLICIES",
    "FLUSH_TIMEOUT",
    "FLUSH_UNBATCHED",
    "ROUTING_LEAST_LOADED",
    "ROUTING_POLICIES",
    "ROUTING_ROUND_ROBIN",
    "ROUTING_STICKY",
    "BatchSizeStats",
    "InferenceClient",
    "InferenceService",
    "InferenceStats",
    "InferenceTicket",
    "LeastLoadedRouting",
    "ModelReplica",
    "ReservoirSample",
    "RoundRobinRouting",
    "RoutingPolicy",
    "StickyRouting",
    "make_routing_policy",
    "EnvRolloutPool",
    "PoolConfig",
    "WorkerPool",
    "WorkerRun",
    "PoolScheduler",
    "SchedulerStats",
]
