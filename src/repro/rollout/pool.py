"""Worker pools sharing one GPU and one batched inference service.

A pool runs ``num_workers`` independent "processes" (each with its own
virtual clock, cost model, CUDA runtime and stream on one shared
:class:`~repro.hw.gpu.GPUDevice`) whose policy evaluations all go through
one batched/sharded :class:`~repro.rollout.inference.InferenceService`,
interleaved by the :class:`~repro.rollout.scheduler.PoolScheduler`.

:class:`WorkerPool` is the core of :class:`EnvRolloutPool` (any
``repro.sim.registry`` environment behind a shared policy network) and of
:class:`~repro.minigo.workers.SelfPlayPool`.  It owns argument validation
(one table of rules, checked at construction), the trace-store lifecycle,
the scheduler run loop and the multiprocess path: shard processes
(:mod:`repro.parallel`) rebuild the pool from ``_child_config()`` and build
their workers through the same ``_build_workers()`` the single-process run
uses.  A pool class supplies only its service and how it builds a worker's
driver, in its own order (self-play: service, then workers; env rollout:
every worker's env, then the service sized from it) — the order fixes
every RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from .driver import StepwiseDriver
from .envdriver import (
    ActionPolicy,
    EnvRolloutDriver,
    GaussianNoisePolicy,
    SampledDiscretePolicy,
)
from .inference import (
    FLUSH_MAX_BATCH,
    FLUSH_UNBATCHED,
    ROUTING_POLICIES,
    ROUTING_ROUND_ROBIN,
    InferenceClient,
    InferenceService,
)
from .planner import flush_policy_error
from .scheduler import PoolScheduler
from .seeding import driver_seed

#: Compiled-function name for zoo policy evaluations (mirrors the per-step
#: inference functions the serial ``repro.rl`` collection loops compile).
POLICY_FUNCTION_NAME = "policy_forward"

#: Scheduler modes: ``sequential`` serves every ticket alone on its own
#: worker's clock (the ``unbatched`` flush policy); ``event`` applies the
#: pool's ``flush_policy``, batching across workers.
SCHEDULER_SEQUENTIAL = "sequential"
SCHEDULER_EVENT = "event"
SCHEDULERS = (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT)


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
class WorkerRun:
    """Output of one pool worker.

    ``result`` is the worker's driver result (a
    :class:`~repro.minigo.selfplay.SelfPlayResult` or an
    :class:`~repro.rollout.envdriver.EnvRolloutResult`).  ``trace`` is
    ``None`` when profiling is off or when the pool streams traces into a
    shared store (query them via :meth:`WorkerPool.tracedb`); ``system`` is
    ``None`` for runs a shard process sent back.
    """

    worker: str
    result: Any
    trace: Optional[EventTrace]
    total_time_us: float
    system: Optional[System] = field(repr=False, default=None)


class WorkerStack(NamedTuple):
    """One built worker: its driver and what the pool and a shard reach into."""

    driver: StepwiseDriver
    system: System
    #: the worker's service connection; batches it departs run on its system
    client: Optional[InferenceClient]
    profiler: Optional[Profiler]


class WorkerPool:
    """Core of a pool of workers sharing one GPU and one inference service.

    Subclasses set :attr:`kind` and :attr:`worker_prefix`, assign their own
    attributes before calling this constructor, implement
    :meth:`_build_workers` and extend :meth:`_child_config`.
    """

    #: :attr:`~repro.parallel.shard.ShardSpec.kind` naming this pool class
    kind = ""
    #: worker ``i`` is named ``f"{worker_prefix}_{i}"``
    worker_prefix = ""

    def __init__(self, num_workers: int, *, profile: bool,
                 cost_config: Optional[CostModelConfig], seed: int,
                 trace_dir: Optional[str], store: Optional["StreamingTraceWriter"],
                 chunk_events: int, inference_max_batch: Optional[int], num_replicas: int,
                 routing, flush_policy: str, flush_timeout_us: Optional[float],
                 num_processes: Optional[int], process_backend: str, fault_plan,
                 cache_capacity: Optional[int], cache_scope: str,
                 batched_inference: bool = True, scheduler: str = SCHEDULER_EVENT) -> None:
        self.num_workers = num_workers
        self.profile = profile
        self.cost_config = cost_config
        self.seed = seed
        self.trace_dir = trace_dir
        self.chunk_events = chunk_events
        self.inference_max_batch = inference_max_batch
        self.num_replicas = num_replicas
        self.routing = routing
        self.flush_policy = flush_policy
        self.flush_timeout_us = flush_timeout_us
        self.num_processes = num_processes
        self.process_backend = process_backend
        #: optional :class:`~repro.faults.plan.FaultPlan` for the multiprocess
        #: tier (shard crashes -> respawn + journal replay).  Excluded from
        #: :meth:`_child_config`: the parent injects faults, respawned shards
        #: must never re-inject them.
        self.fault_plan = fault_plan
        self.cache_capacity = cache_capacity
        self.cache_scope = cache_scope
        self.batched_inference = batched_inference
        self.scheduler = scheduler
        for violated, message in self._rules(store):
            if violated:
                raise ValueError(message)
        #: the shared accelerator all workers contend for
        self.device = GPUDevice()
        self.inference_service: Optional[InferenceService] = None
        self.pool_scheduler: Optional[PoolScheduler] = None
        self.runs: List[WorkerRun] = []
        # Streaming trace store: every worker writes its own shard into one
        # store (either a shared writer passed in, or one owned by the pool).
        self._store = store
        self._owns_store = False
        self._streamed = False
        if store is None and trace_dir is not None:
            from ..tracedb.writer import StreamingTraceWriter
            self._store = StreamingTraceWriter(trace_dir, chunk_events=chunk_events)
            self._owns_store = True

    def _rules(self, store) -> List[Tuple[bool, str]]:
        """Every argument check of the pool, as ``(violated, message)`` rows."""
        from .evalcache import CACHE_SCOPES

        parallel = self.num_processes is not None
        choices = [("scheduler", self.scheduler, SCHEDULERS),
                   ("cache scope", self.cache_scope, CACHE_SCOPES)]
        if isinstance(self.routing, str):
            choices.append(("routing policy", self.routing, ROUTING_POLICIES))
        if parallel:
            from ..parallel.runner import BACKENDS
            choices.append(("process backend", self.process_backend, BACKENDS))
        unbatched = not self.batched_inference
        flush_error = flush_policy_error(self.flush_policy, self.flush_timeout_us)
        return [
            (self.num_workers <= 0, "num_workers must be positive"),
            (self.num_replicas <= 0, "num_replicas must be positive"),
            (parallel and self.num_processes <= 0, "num_processes must be positive"),
            *((value not in known, f"unknown {what} {value!r}; expected one of {known}")
              for what, value, known in choices),
            (flush_error is not None, flush_error),
            (unbatched and self.num_replicas > 1,
             "num_replicas > 1 requires batched_inference=True "
             "(there is no inference service to shard otherwise)"),
            (unbatched and self.scheduler == SCHEDULER_EVENT,
             "the event-driven scheduler requires batched_inference=True "
             "(workers must block on a shared InferenceService)"),
            (unbatched and self.cache_capacity is not None,
             "cache_capacity requires batched_inference=True "
             "(the evaluation cache lives in the shared service)"),
            (parallel and self.scheduler != SCHEDULER_EVENT,
             "num_processes requires the event scheduler "
             "(shards are merged at serve boundaries)"),
            (parallel and self.cache_capacity is not None,
             "num_processes cannot be combined with the service evaluation "
             "cache: shards replay engine calls from their own pre-run "
             "timelines, so parent-side cache hits would desynchronize the "
             "shard replicas; run the cache single-process"),
            (parallel and store is not None,
             "num_processes cannot share a live store object "
             "across processes; pass trace_dir instead"),
        ]

    # ----------------------------------------------------------- trace store
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

    def _close_store(self) -> None:
        """Seal the store after a run (shard processes seal their own)."""
        if self.streaming:
            self._streamed = True
            if self._owns_store:
                self._store.close()

    # ------------------------------------------------------------------ run
    def _run(self, weights: Optional[list]) -> List[WorkerRun]:
        if self.streaming and self._streamed:
            # A rerun restarts every worker clock at zero; appending it to the
            # same shards would double-count time in store-derived summaries.
            raise RuntimeError("this pool already streamed a run into its trace store; "
                               "create a new pool (or trace_dir) for another run")
        self.runs = []
        self.inference_service = None
        self.pool_scheduler = None
        # A rerun restarts every worker clock at zero, so it also starts on
        # an idle device: its kernels must not queue behind the last run's.
        self.device = GPUDevice()
        if self.num_processes is not None:
            self.runs = self._run_parallel(weights)
        else:
            self.runs = self._run_workers(weights)
        self._close_store()
        return self.runs

    def _run_workers(self, weights: Optional[list]) -> List[WorkerRun]:
        """Build every worker, then interleave their drivers under one scheduler."""
        stacks = self._build_workers(range(self.num_workers), weights)
        self._schedule([stack.driver for stack in stacks])
        return [self._finish_worker(stack, stack.profiler, stack.driver.result)
                for stack in stacks]

    def _schedule(self, drivers: Sequence[StepwiseDriver]) -> None:
        flush_policy = (self.flush_policy if self.scheduler == SCHEDULER_EVENT
                        else FLUSH_UNBATCHED)
        self.pool_scheduler = PoolScheduler(drivers, self.inference_service,
                                            flush_policy=flush_policy,
                                            flush_timeout_us=self.flush_timeout_us)
        self.pool_scheduler.run()

    def _run_parallel(self, weights: Optional[list]) -> List[WorkerRun]:
        """Run the pool sharded over ``num_processes`` OS processes.

        Shards build and advance the real worker stacks; the parent replays
        their timelines through proxy drivers under the real scheduler and
        the mirror service, so every scheduling/batching/routing decision —
        and therefore every record and clock — matches the single-process
        event loop bit-for-bit.
        """
        from functools import partial

        from ..parallel.proxy import MirrorInferenceService, ProxyDriver
        from ..parallel.runner import ParallelRunner, assign_workers
        from ..parallel.shard import ShardSpec

        config = self._child_config()
        specs = [ShardSpec(kind=self.kind, pool_config=config,
                           worker_indices=indices, weights=weights)
                 for indices in assign_workers(self.num_workers, self.num_processes)]
        runner = ParallelRunner(specs, backend=self.process_backend,
                                fault_plan=self.fault_plan)
        self.parallel_runner = runner
        try:
            self._build_workers((), weights, service_factory=partial(MirrorInferenceService,
                                                                     runner=runner))
            segments = runner.build()
            proxies = [ProxyDriver(runner, index, self._worker_name(index),
                                   self.inference_service, segments[index])
                       for index in range(self.num_workers)]
            runner.attach(proxies)
            self._schedule(proxies)
            finals = runner.finalize()
        finally:
            runner.stop()
        return [finals[index] for index in range(self.num_workers)]

    # ----------------------------------------------------------- pool hooks
    def _build_workers(self, indices: Sequence[int], weights: Optional[list] = None,
                       restore: Optional[Dict[int, bytes]] = None,
                       service_factory=None) -> List[WorkerStack]:
        """Build the shared service and the workers ``indices``, in pool order.

        A worker whose index is in ``restore`` gets its driver rebuilt from
        that snapshot blob (mid-run shard recovery) instead of a fresh one.
        With no ``indices`` only the service is built: the parent of a
        multiprocess run, whose shards own every worker, passes the mirror
        service as ``service_factory``.  Sets :attr:`inference_service`.
        """
        raise NotImplementedError

    def _child_config(self) -> dict:
        """Constructor kwargs a shard process rebuilds this pool from."""
        return dict(
            num_workers=self.num_workers,
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
        )

    # ---------------------------------------------------------- worker parts
    def _worker_name(self, index: int) -> str:
        return f"{self.worker_prefix}_{index}"

    def _worker_system(self, index: int) -> Tuple[System, GraphEngine]:
        """One worker's system and engine: its own "process" on the shared GPU."""
        from .seeding import system_seed

        system = System.create(
            seed=system_seed(self.seed, index),
            config=self.cost_config,
            device=self.device,
            worker=self._worker_name(index),
        )
        system.cuda.default_stream = index
        return system, GraphEngine(system, flavor="tensorflow")

    def _worker_profiler(self, system: System, engine: GraphEngine,
                         envs: Sequence[object] = ()) -> Optional[Profiler]:
        if not self.profile:
            return None
        profiler = Profiler(system, ProfilerConfig.full(), worker=system.worker,
                            store=self._store)
        profiler.attach(engine=engine, envs=envs)
        return profiler

    def _new_service(self, network, service_factory=None, **kwargs) -> InferenceService:
        """The shared service around ``network``: ``num_replicas`` shards,
        replica 0 on the pool's primary GPU.  ``service_factory`` substitutes
        the class (the multiprocess path passes the parent-side mirror)."""
        factory = service_factory if service_factory is not None else InferenceService
        if self.cache_capacity is not None:
            kwargs.update(cache_capacity=self.cache_capacity, cache_scope=self.cache_scope)
        return factory(
            network,
            max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            primary_device=self.device,
            cost_config=self.cost_config,
            seed=self.seed,
            **kwargs,
        )

    def _finish_worker(self, worker, profiler: Optional[Profiler], result) -> WorkerRun:
        """One worker's run record; ``worker`` is anything carrying its ``system``."""
        trace = profiler.finalize() if profiler is not None else None
        if self.streaming:
            # The trace lives in the store's shard; keep runs lightweight.
            trace = None
        return WorkerRun(worker=worker.system.worker, result=result, trace=trace,
                         total_time_us=worker.system.clock.now_us, system=worker.system)

    # ------------------------------------------------------------- reporting
    def traces(self) -> Dict[str, EventTrace]:
        return {run.worker: run.trace for run in self.runs if run.trace is not None}

    def collection_span_us(self) -> float:
        """Wall-clock span of the parallel collection phase (slowest worker)."""
        return max((run.total_time_us for run in self.runs), default=0.0)


class EnvRolloutPool(WorkerPool):
    """Pool of env-rollout workers sharing one GPU and one inference service."""

    kind = "envrollout"
    worker_prefix = "rollout_worker"

    def __init__(
        self,
        sim: str,
        num_workers: int = 8,
        *,
        steps_per_worker: int = 32,
        hidden: Tuple[int, ...] = (64, 64),
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
        env_kwargs: Optional[dict] = None,
        num_processes: Optional[int] = None,
        process_backend: str = "process",
        fault_plan=None,
        cache_capacity: Optional[int] = None,
        cache_scope: str = "shared",
    ) -> None:
        """Every worker's policy evaluations go through one shared
        :class:`RolloutPolicyNet` (``hidden`` layers) with the env-appropriate
        service forward: softmax rows for discrete envs, raw action rows for
        continuous ones.  ``policy_factory(env, seed)`` builds one
        :class:`~repro.rollout.envdriver.ActionPolicy` per worker (see
        ``repro.rl.zoo``); by default categorical sampling for discrete envs
        and gaussian exploration noise for continuous ones.  Every worker
        keeps its transitions in its run's result.

        ``inference_max_batch`` defaults to ``num_workers // num_replicas``
        (floor 1): with one row per blocked worker, a full batch then forms
        as soon as one replica's fair share of the fleet is waiting, which
        both bounds batch size and lets the replica-aware eager path fan
        full batches out while other workers still run.

        ``num_processes`` shards the workers over that many real OS
        processes via :mod:`repro.parallel` (only with the default policy —
        live objects cannot cross the process boundary): shards advance their
        drivers between serves while the parent merges their virtual
        timelines and runs the shared service, bit-for-bit reproducing the
        single-process event loop.
        ``process_backend="inline"`` runs the shards in-process.

        ``cache_capacity`` turns on the service-side evaluation cache
        (weight-versioned LRU; see :mod:`repro.rollout.evalcache`) for envs
        whose :meth:`~repro.sim.base.Env.state_key` returns a stable hash;
        keyless envs bypass it row-by-row.  ``cache_scope`` is ``"shared"``
        (one cache over all replicas) or ``"replica"``.
        """
        self.sim = sim
        self.steps_per_worker = steps_per_worker
        self.hidden = hidden
        self.env_kwargs = dict(env_kwargs or {})
        self._policy_factory = policy_factory
        super().__init__(
            num_workers, profile=profile, cost_config=cost_config, seed=seed,
            trace_dir=trace_dir, store=store, chunk_events=chunk_events,
            inference_max_batch=inference_max_batch, num_replicas=num_replicas,
            routing=routing, flush_policy=flush_policy, flush_timeout_us=flush_timeout_us,
            num_processes=num_processes, process_backend=process_backend,
            fault_plan=fault_plan, cache_capacity=cache_capacity, cache_scope=cache_scope)
        if inference_max_batch is None:
            self.inference_max_batch = max(1, num_workers // num_replicas)

    def _rules(self, store) -> List[Tuple[bool, str]]:
        return super()._rules(store) + [
            (self.steps_per_worker <= 0, "steps_per_worker must be positive"),
            (self.num_processes is not None and self._policy_factory is not None,
             "num_processes requires the default policy (live objects cannot cross "
             "the process boundary)"),
        ]

    def run(self) -> List[WorkerRun]:
        """Drive every worker's rollout to completion; returns per-worker runs."""
        return self._run(None)

    def _build_service(self, probe_env, service_factory=None) -> InferenceService:
        """Build the shared service for a fleet of ``probe_env``-shaped workers.

        ``probe_env`` supplies the observation/action dims and the
        discrete/continuous forward choice — identical for every worker of
        one sim, so any worker's env (or a throwaway probe) works.
        """
        from .seeding import network_seed

        network = RolloutPolicyNet(
            probe_env.observation_dim, probe_env.action_dim, self.hidden,
            continuous=not probe_env.is_discrete,
            rng=np.random.default_rng(network_seed(self.seed)),
            name=f"zoo_{self.sim}")
        forward = None if probe_env.is_discrete else continuous_actor_forward
        return self._new_service(network, service_factory,
                                 function_name=POLICY_FUNCTION_NAME, forward=forward)

    def _build_workers(self, indices, weights=None, restore=None,
                       service_factory=None) -> List[WorkerStack]:
        # Every worker's system/engine/env first (fixed creation order keeps
        # every RNG stream independent of pool configuration), then the
        # service sized from the first env (a probe env if there is none).
        stacks = [self._make_worker_stack(index) for index in indices]
        probe_env = stacks[0][2] if stacks else self._probe_env()
        self.inference_service = self._build_service(probe_env, service_factory)
        built = []
        for index, (system, engine, env, profiler) in zip(indices, stacks):
            client = self.inference_service.connect(system, engine, worker=system.worker)
            blob = (restore or {}).get(index)
            if blob is not None:
                driver = EnvRolloutDriver.restore(env, client, blob, profiler=profiler)
            else:
                driver = EnvRolloutDriver(
                    env, client, self._make_policy(env, index), self.steps_per_worker,
                    seed=driver_seed(self.seed, index), profiler=profiler)
            built.append(WorkerStack(driver, system, client, profiler))
        return built

    def _child_config(self) -> dict:
        return dict(super()._child_config(),
                    sim=self.sim,
                    steps_per_worker=self.steps_per_worker,
                    hidden=self.hidden,
                    env_kwargs=self.env_kwargs)

    def _probe_env(self):
        """A throwaway env instance for shapes only — no worker stream touched."""
        return registry.make(self.sim, System.create(seed=0, worker="probe"),
                             seed=0, **self.env_kwargs)

    def _make_worker_stack(self, index: int):
        """Build one worker's system/engine/env/profiler (its "process")."""
        from .seeding import worker_seed

        system, engine = self._worker_system(index)
        env = registry.make(self.sim, system, seed=worker_seed(self.seed, index),
                            **self.env_kwargs)
        return system, engine, env, self._worker_profiler(system, engine, envs=(env,))

    def _make_policy(self, env, index: int) -> ActionPolicy:
        if self._policy_factory is not None:
            return self._policy_factory(env, driver_seed(self.seed, index))
        return SampledDiscretePolicy() if env.is_discrete else GaussianNoisePolicy()

    # ------------------------------------------------------------- reporting
    def total_steps(self) -> int:
        return sum(run.result.steps for run in self.runs)
