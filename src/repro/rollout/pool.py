"""Worker pool running any registered simulator through the batched stack.

:class:`EnvRolloutPool` is the env-agnostic sibling of
:class:`~repro.minigo.workers.SelfPlayPool`: ``num_workers`` independent
"processes" (each with its own virtual clock, cost model, CUDA runtime and
stream on one shared :class:`~repro.hw.gpu.GPUDevice`) each run one
``repro.sim.registry`` environment behind a shared policy network, with
every per-step policy evaluation routed through one batched/sharded
:class:`~repro.rollout.inference.InferenceService` and the workers
interleaved by the :class:`~repro.rollout.scheduler.PoolScheduler`.  One
engine call serves the pending steps of many workers — the cross-worker
batching the Minigo pool demonstrated, now available to every sim and
algorithm in the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tracedb.store import TraceDB
    from ..tracedb.writer import StreamingTraceWriter

from ..backend.graph import GraphEngine
from ..backend.layers import MLP, Module
from ..backend.tensor import Parameter, Tensor
from ..hw.costmodel import CostModelConfig
from ..hw.gpu import GPUDevice
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.events import EventTrace
from ..sim import registry
from ..system import System
from .envdriver import (
    ActionPolicy,
    EnvRolloutDriver,
    EnvRolloutResult,
    GaussianNoisePolicy,
    SampledDiscretePolicy,
)
from .inference import (
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    ROUTING_ROUND_ROBIN,
    InferenceService,
)
from .scheduler import PoolScheduler
from .seeding import driver_seed

#: Compiled-function name for zoo policy evaluations (mirrors the per-step
#: inference functions the serial ``repro.rl`` collection loops compile).
POLICY_FUNCTION_NAME = "policy_forward"


class RolloutPolicyNet(Module):
    """Default zoo actor-critic: shared trunk, action head, value head.

    The action head emits logits for discrete envs (the service's default
    softmax forward turns them into sampling probabilities) and tanh-bounded
    action means for continuous envs (served raw through
    :func:`continuous_actor_forward`; the env clips to its action space).
    """

    def __init__(self, obs_dim: int, out_dim: int, hidden: Tuple[int, ...] = (64, 64), *,
                 continuous: bool = False, rng: Optional[np.random.Generator] = None,
                 name: str = "zoo_net") -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.out_dim = out_dim
        self.continuous = continuous
        self.trunk = MLP(obs_dim, list(hidden[:-1]), hidden[-1], activation="relu",
                         out_activation="relu", name=f"{name}/trunk", rng=rng)
        self.action_head = MLP(hidden[-1], [], out_dim,
                               out_activation="tanh" if continuous else None,
                               name=f"{name}/action", rng=rng)
        self.value_head = MLP(hidden[-1], [], 1, name=f"{name}/value", rng=rng)

    def __call__(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        trunk = self.trunk(features)
        return self.action_head(trunk), self.value_head(trunk)

    def parameters(self) -> List[Parameter]:
        return (self.trunk.parameters() + self.action_head.parameters()
                + self.value_head.parameters())


def continuous_actor_forward(network, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Service forward for continuous actors: raw action rows, no softmax."""
    actions, value = network(Tensor(features))
    return actions.numpy(), value.numpy().reshape(-1)


@dataclass
class RolloutWorkerRun:
    """Output of one zoo worker (mirrors the Minigo pool's ``WorkerRun``)."""

    worker: str
    result: EnvRolloutResult
    trace: Optional[EventTrace]
    total_time_us: float
    system: Optional[System] = field(repr=False, default=None)


class EnvRolloutPool:
    """Pool of env-rollout workers sharing one GPU and one inference service."""

    def __init__(
        self,
        sim: str,
        num_workers: int = 8,
        *,
        steps_per_worker: int = 32,
        hidden: Tuple[int, ...] = (64, 64),
        network=None,
        forward=None,
        policy_factory=None,
        profile: bool = False,
        cost_config: Optional[CostModelConfig] = None,
        seed: int = 0,
        trace_dir: Optional[str] = None,
        store: Optional["StreamingTraceWriter"] = None,
        chunk_events: int = 50_000,
        inference_max_batch: Optional[int] = None,
        num_replicas: int = 1,
        routing: str = ROUTING_ROUND_ROBIN,
        flush_policy: str = FLUSH_MAX_BATCH,
        flush_timeout_us: Optional[float] = None,
        collect_transitions: bool = True,
        env_kwargs: Optional[dict] = None,
        num_processes: Optional[int] = None,
        process_backend: str = "process",
        fault_plan=None,
        cache_capacity: Optional[int] = None,
        cache_scope: str = "shared",
    ) -> None:
        """``network``/``forward``/``policy_factory`` default to a shared
        :class:`RolloutPolicyNet` with the env-appropriate service forward
        and action policy (categorical sampling for discrete envs, gaussian
        exploration noise for continuous ones); pass your own to route an
        algorithm's live network through the service instead (see
        ``repro.rl.zoo``).  ``policy_factory(env, seed)`` builds one
        :class:`~repro.rollout.envdriver.ActionPolicy` per worker.

        ``inference_max_batch`` defaults to ``num_workers // num_replicas``
        (floor 1): with one row per blocked worker, a full batch then forms
        as soon as one replica's fair share of the fleet is waiting, which
        both bounds batch size and lets the replica-aware eager path fan
        full batches out while other workers still run.

        ``num_processes`` shards the workers over that many real OS
        processes via :mod:`repro.parallel` (only with the default
        network/forward/policy — live objects cannot cross the process
        boundary): shards advance their drivers between serves while the
        parent merges their virtual timelines and runs the shared service,
        bit-for-bit reproducing the single-process event loop.
        ``process_backend="inline"`` runs the shards in-process.

        ``cache_capacity`` turns on the service-side evaluation cache
        (weight-versioned LRU; see :mod:`repro.rollout.evalcache`) for envs
        whose :meth:`~repro.sim.base.Env.state_key` returns a stable hash;
        keyless envs bypass it row-by-row.  ``cache_scope`` is ``"shared"``
        (one cache over all replicas) or ``"replica"``.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if steps_per_worker <= 0:
            raise ValueError("steps_per_worker must be positive")
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if flush_policy not in FLUSH_POLICIES:
            raise ValueError(f"unknown flush policy {flush_policy!r}; "
                             f"expected one of {FLUSH_POLICIES}")
        if flush_policy == FLUSH_TIMEOUT and (flush_timeout_us is None or flush_timeout_us < 0):
            raise ValueError("the timeout flush policy requires a non-negative flush_timeout_us")
        if num_processes is not None:
            from ..parallel.runner import BACKENDS
            if num_processes <= 0:
                raise ValueError("num_processes must be positive")
            if store is not None:
                raise ValueError("num_processes cannot share a live store object "
                                 "across processes; pass trace_dir instead")
            if network is not None or forward is not None or policy_factory is not None:
                raise ValueError("num_processes requires the default network/forward/"
                                 "policy (live objects cannot cross the process boundary)")
            if process_backend not in BACKENDS:
                raise ValueError(f"unknown process backend {process_backend!r}; "
                                 f"expected one of {BACKENDS}")
        if cache_capacity is not None:
            from .evalcache import CACHE_SCOPES
            if cache_scope not in CACHE_SCOPES:
                raise ValueError(f"unknown cache scope {cache_scope!r}; "
                                 f"expected one of {CACHE_SCOPES}")
            if num_processes is not None:
                raise ValueError(
                    "num_processes cannot be combined with the service evaluation "
                    "cache: shards replay engine calls from their own pre-run "
                    "timelines, so parent-side cache hits would desynchronize the "
                    "shard replicas; run the cache single-process")
        self.sim = sim
        self.num_workers = num_workers
        self.steps_per_worker = steps_per_worker
        self.hidden = hidden
        self.profile = profile
        self.cost_config = cost_config
        self.seed = seed
        self.num_replicas = num_replicas
        self.routing = routing
        self.flush_policy = flush_policy
        self.flush_timeout_us = flush_timeout_us
        self.collect_transitions = collect_transitions
        self.env_kwargs = dict(env_kwargs or {})
        self.num_processes = num_processes
        self.process_backend = process_backend
        #: optional :class:`~repro.faults.plan.FaultPlan` for the multiprocess
        #: tier (shard crashes -> respawn + journal replay).  Deliberately
        #: excluded from :meth:`_child_config`: faults are injected by the
        #: parent, never re-injected inside a respawned shard.
        self.fault_plan = fault_plan
        self.cache_capacity = cache_capacity
        self.cache_scope = cache_scope
        self.trace_dir = trace_dir
        self.chunk_events = chunk_events
        self.inference_max_batch = (inference_max_batch if inference_max_batch is not None
                                    else max(1, num_workers // num_replicas))
        self._network = network
        self._forward = forward
        self._policy_factory = policy_factory
        #: the shared accelerator all workers contend for
        self.device = GPUDevice()
        self.inference_service: Optional[InferenceService] = None
        self.pool_scheduler: Optional[PoolScheduler] = None
        self.runs: List[RolloutWorkerRun] = []
        self._store = store
        self._owns_store = False
        self._streamed = False
        if self._store is None and trace_dir is not None:
            from ..tracedb.writer import StreamingTraceWriter
            self._store = StreamingTraceWriter(trace_dir, chunk_events=chunk_events)
            self._owns_store = True

    @property
    def streaming(self) -> bool:
        return self._store is not None

    @property
    def store(self) -> Optional["StreamingTraceWriter"]:
        return self._store

    def tracedb(self) -> "TraceDB":
        """Open the streamed trace store for querying/map-reduce analysis."""
        if self._store is None:
            raise ValueError("pool was not created with trace_dir/store; no trace store to open")
        from ..tracedb.store import TraceDB
        return TraceDB(str(self._store.directory))

    # ------------------------------------------------------------------ run
    def run(self) -> List[RolloutWorkerRun]:
        """Drive every worker's rollout to completion; returns per-worker runs."""
        if self.streaming and self._streamed:
            raise RuntimeError("this pool already streamed a run into its trace store; "
                               "create a new pool (or trace_dir) for another run")
        self.runs = []
        if self.num_processes is not None:
            return self._run_parallel()
        # Build every worker's system/engine/env first (fixed creation order
        # keeps every RNG stream independent of pool configuration).
        stacks = [self._make_worker_stack(index) for index in range(self.num_workers)]
        probe_env = stacks[0][2]
        self.inference_service = self._build_service(probe_env)
        drivers: List[EnvRolloutDriver] = []
        profilers: List[Optional[Profiler]] = []
        for index, (system, engine, env, profiler) in enumerate(stacks):
            client = self.inference_service.connect(system, engine,
                                                    worker=system.worker)
            policy = self._make_policy(env, index)
            drivers.append(EnvRolloutDriver(
                env, client, policy, self.steps_per_worker,
                seed=driver_seed(self.seed, index), profiler=profiler,
                collect_transitions=self.collect_transitions))
            profilers.append(profiler)
        self.pool_scheduler = PoolScheduler(
            drivers, self.inference_service,
            flush_policy=self.flush_policy, flush_timeout_us=self.flush_timeout_us)
        self.pool_scheduler.run()
        for (system, _, _, profiler), driver in zip(stacks, drivers):
            trace = profiler.finalize() if profiler is not None else None
            if self.streaming:
                trace = None  # the trace lives in the store's shard
            self.runs.append(RolloutWorkerRun(
                worker=system.worker, result=driver.result, trace=trace,
                total_time_us=system.clock.now_us, system=system))
        if self.streaming:
            self._streamed = True
            if self._owns_store:
                self._store.close()
        return self.runs

    def _build_service(self, probe_env, service_factory=None) -> InferenceService:
        """Build the shared service for a fleet of ``probe_env``-shaped workers.

        ``probe_env`` supplies the observation/action dims and the
        discrete/continuous forward choice — identical for every worker of
        one sim, so any worker's env (or a throwaway probe) works.
        ``service_factory`` substitutes the class (the multiprocess path
        passes the parent-side mirror service).
        """
        from .seeding import network_seed

        factory = service_factory if service_factory is not None else InferenceService
        network = self._network
        if network is None:
            network = RolloutPolicyNet(
                probe_env.observation_dim, probe_env.action_dim, self.hidden,
                continuous=not probe_env.is_discrete,
                rng=np.random.default_rng(network_seed(self.seed)),
                name=f"zoo_{self.sim}")
        forward = self._forward
        if forward is None and not probe_env.is_discrete:
            forward = continuous_actor_forward
        cache_kwargs = {}
        if self.cache_capacity is not None:
            cache_kwargs.update(cache_capacity=self.cache_capacity,
                                cache_scope=self.cache_scope)
        return factory(
            network,
            max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            primary_device=self.device,
            cost_config=self.cost_config,
            seed=self.seed,
            function_name=POLICY_FUNCTION_NAME,
            forward=forward,
            **cache_kwargs,
        )

    def _child_config(self) -> dict:
        """Constructor kwargs a shard process rebuilds this pool from."""
        return dict(
            sim=self.sim,
            num_workers=self.num_workers,
            steps_per_worker=self.steps_per_worker,
            hidden=self.hidden,
            profile=self.profile,
            cost_config=self.cost_config,
            seed=self.seed,
            trace_dir=self.trace_dir,
            chunk_events=self.chunk_events,
            inference_max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            flush_policy=self.flush_policy,
            flush_timeout_us=self.flush_timeout_us,
            collect_transitions=self.collect_transitions,
            env_kwargs=self.env_kwargs,
        )

    def _probe_env(self):
        """A throwaway env instance for shapes only — no worker stream touched."""
        return registry.make(self.sim, System.create(seed=0, worker="probe"),
                             seed=0, **self.env_kwargs)

    def _run_parallel(self) -> List[RolloutWorkerRun]:
        """Run the pool sharded over ``num_processes`` OS processes.

        Same merge architecture as :meth:`SelfPlayPool._run_parallel`:
        shards own the real worker stacks, the parent owns the schedule.
        """
        from functools import partial

        from ..parallel.proxy import MirrorInferenceService, ProxyDriver
        from ..parallel.runner import ParallelRunner, assign_workers
        from ..parallel.shard import ShardSpec

        config = self._child_config()
        specs = [ShardSpec(kind="envrollout", pool_config=config,
                           worker_indices=indices)
                 for indices in assign_workers(self.num_workers, self.num_processes)]
        runner = ParallelRunner(specs, backend=self.process_backend,
                                fault_plan=self.fault_plan)
        self.parallel_runner = runner
        try:
            service = self._build_service(
                self._probe_env(),
                service_factory=partial(MirrorInferenceService, runner=runner))
            self.inference_service = service
            segments = runner.build()
            proxies = [ProxyDriver(runner, index, f"rollout_worker_{index}",
                                   service, segments[index])
                       for index in range(self.num_workers)]
            runner.attach(proxies)
            self.pool_scheduler = PoolScheduler(
                proxies, service,
                flush_policy=self.flush_policy, flush_timeout_us=self.flush_timeout_us)
            self.pool_scheduler.run()
            finals = runner.finalize()
        finally:
            runner.stop()
        self.runs = [RolloutWorkerRun(worker=f"rollout_worker_{index}",
                                      result=finals[index]["result"],
                                      trace=finals[index]["trace"],
                                      total_time_us=finals[index]["total_time_us"])
                     for index in range(self.num_workers)]
        if self.streaming:
            self._streamed = True
            if self._owns_store:
                # The shards already merged their trace shards; closing the
                # parent's (shard-less) writer just seals the store index.
                self._store.close()
        return self.runs

    def _make_worker_stack(self, index: int):
        """Build one worker's system/engine/env/profiler (its "process")."""
        from .seeding import system_seed, worker_seed

        worker_name = f"rollout_worker_{index}"
        system = System.create(
            seed=system_seed(self.seed, index),
            config=self.cost_config,
            device=self.device,
            worker=worker_name,
        )
        system.cuda.default_stream = index
        engine = GraphEngine(system, flavor="tensorflow")
        env = registry.make(self.sim, system, seed=worker_seed(self.seed, index),
                            **self.env_kwargs)
        profiler: Optional[Profiler] = None
        if self.profile:
            profiler = Profiler(system, ProfilerConfig.full(), worker=worker_name,
                                store=self._store)
            profiler.attach(engine=engine, envs=(env,))
        return system, engine, env, profiler

    def _make_policy(self, env, index: int) -> ActionPolicy:
        if self._policy_factory is not None:
            return self._policy_factory(env, driver_seed(self.seed, index))
        return SampledDiscretePolicy() if env.is_discrete else GaussianNoisePolicy()

    # ------------------------------------------------------------- reporting
    def traces(self) -> Dict[str, EventTrace]:
        return {run.worker: run.trace for run in self.runs if run.trace is not None}

    def total_steps(self) -> int:
        return sum(run.result.steps for run in self.runs)

    def collection_span_us(self) -> float:
        """Wall-clock span of the parallel collection phase (slowest worker)."""
        return max((run.total_time_us for run in self.runs), default=0.0)
