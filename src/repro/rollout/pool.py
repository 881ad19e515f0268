"""Worker pools sharing one GPU and one batched inference service.

A pool runs ``num_workers`` independent "processes" (each with its own
virtual clock, cost model, CUDA runtime and stream on one shared
:class:`~repro.hw.gpu.GPUDevice`) whose policy evaluations all go through
one batched/sharded :class:`~repro.rollout.inference.InferenceService`,
interleaved by the :class:`~repro.rollout.scheduler.PoolScheduler`.

:class:`WorkerPool` is the core of :class:`EnvRolloutPool` (any
``repro.sim.registry`` environment behind a shared policy network) and of
:class:`~repro.minigo.workers.SelfPlayPool`.  It owns argument validation
(one table of rules over one :class:`PoolConfig`, checked at
construction), the trace-store lifecycle, the scheduler run loop and the
multiprocess path: shard processes (:mod:`repro.parallel`) rebuild the pool
from its config and its own options, and build their workers through the
same ``_build_workers()`` the single-process run uses.  A pool class
supplies only its service and how it builds a worker's driver, in its own
order (self-play: service, then workers; env rollout: every worker's env,
then the service sized from it) — the order fixes every RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..tracedb.store import TraceDB
    from ..tracedb.writer import StreamingTraceWriter

from ..backend.graph import GraphEngine
from ..backend.layers import MLP, Module
from ..backend.tensor import Parameter, Tensor
from ..hw.costmodel import CostModelConfig
from ..hw.gpu import GPUDevice
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.columns import ColumnarTrace
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
    trace: Optional[ColumnarTrace]
    total_time_us: float
    system: Optional[System] = field(repr=False, default=None)


class WorkerStack(NamedTuple):
    """One built worker: its driver and what the pool and a shard reach into."""

    driver: StepwiseDriver
    system: System
    #: the worker's service connection; batches it departs run on its system
    client: Optional[InferenceClient]
    profiler: Optional[Profiler]


@dataclass(frozen=True)
class PoolConfig:
    """The options every worker pool shares, declared and documented once.

    A pool checks them at construction (:meth:`WorkerPool._rules`), and a
    shard process rebuilds its pool from a copy without the multiprocess
    fields.  Every field is a plain value, so a config pickles.
    """

    #: how many workers (simulated processes) the pool runs
    num_workers: int = 8
    #: record every worker's trace with a full :class:`~repro.profiler.api.Profiler`
    profile: bool = False
    #: cost-model constants of every worker system (``None``: the defaults)
    cost_config: Optional[CostModelConfig] = None
    #: base seed; every per-worker RNG stream derives from ``(seed, worker index)``
    seed: int = 0
    #: stream every worker's trace into one TraceDB store in this directory
    trace_dir: Optional[str] = None
    #: records per streamed trace chunk
    chunk_events: int = 50_000
    #: rows per batched engine call; ``None`` is ``num_workers // num_replicas``
    #: (floor 1): a full batch then forms as soon as one replica's fair share
    #: of the fleet is waiting, which bounds batch size and lets the
    #: replica-aware eager path fan full batches out while others still run
    inference_max_batch: Optional[int] = None
    #: model replicas behind the shared service; replica 0 shares the pool's
    #: GPU, each further one models an additional inference GPU
    num_replicas: int = 1
    #: routing policy name (``round-robin``, ``least-loaded`` or ``sticky``)
    routing: str = ROUTING_ROUND_ROBIN
    #: flush policy of the event scheduler (``max-batch``, ``timeout`` with
    #: ``flush_timeout_us``, or ``unbatched``); checked whichever scheduler runs
    flush_policy: str = FLUSH_MAX_BATCH
    flush_timeout_us: Optional[float] = None
    #: shard the workers over this many OS processes (:mod:`repro.parallel`):
    #: records, clocks and scheduler decisions stay bit-for-bit those of the
    #: single-process event loop
    num_processes: Optional[int] = None
    #: ``process`` (real OS processes) or ``inline`` (the same shard logic
    #: in-process, for tests and debugging)
    process_backend: str = "process"
    #: :class:`~repro.faults.plan.FaultPlan` of ``shard-crash`` events for the
    #: multiprocess tier; the parent injects them, so shards never see it
    fault_plan: Optional[FaultPlan] = None
    #: rows of the service's weight-versioned LRU evaluation cache
    #: (:mod:`repro.rollout.evalcache`); ``None`` turns every cache path off
    cache_capacity: Optional[int] = None
    #: evaluate through the shared :class:`InferenceService` (``False``: only
    #: self-play, each worker with its own network on its own timeline)
    batched_inference: bool = True
    #: ``sequential`` serves every ticket alone on its worker's clock;
    #: ``event`` applies ``flush_policy``, batching across workers
    scheduler: str = SCHEDULER_EVENT


def new_service(config: PoolConfig, network, device: Optional[GPUDevice],
                service_factory=None, **kwargs) -> InferenceService:
    """The shared service ``config`` describes around ``network``:
    ``num_replicas`` shards, replica 0 on ``device``.  ``service_factory``
    substitutes the class (the multiprocess path passes the parent-side
    mirror); ``kwargs`` go to it as they are."""
    factory = service_factory if service_factory is not None else InferenceService
    max_batch = config.inference_max_batch
    if max_batch is None:
        max_batch = max(1, config.num_workers // config.num_replicas)
    return factory(
        network,
        max_batch=max_batch,
        num_replicas=config.num_replicas,
        routing=config.routing,
        primary_device=device,
        cost_config=config.cost_config,
        seed=config.seed,
        cache_capacity=config.cache_capacity,
        **kwargs,
    )


class WorkerPool:
    """Core of a pool of workers sharing one GPU and one inference service.

    Subclasses set :attr:`kind` and :attr:`worker_prefix`, pass their own
    options to this constructor and implement :meth:`_build_workers`.
    """

    #: :attr:`~repro.parallel.shard.ShardSpec.kind` naming this pool class
    kind = ""
    #: worker ``i`` is named ``f"{worker_prefix}_{i}"``
    worker_prefix = ""

    def __init__(self, config: PoolConfig,
                 store: Optional["StreamingTraceWriter"] = None, **own_options) -> None:
        """``store`` is a live trace writer shared with other phases (or pass
        ``config.trace_dir``).  ``own_options`` are the subclass's options:
        each becomes an attribute, and a shard process gets them back."""
        self.config = config
        self.own_options = own_options
        vars(self).update(own_options)
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
        if store is None and config.trace_dir is not None:
            from ..tracedb.writer import StreamingTraceWriter
            self._store = StreamingTraceWriter(config.trace_dir,
                                               chunk_events=config.chunk_events)
            self._owns_store = True

    def _rules(self, store) -> List[Tuple[bool, str]]:
        """Every argument check of the pool, as ``(violated, message)`` rows."""
        config = self.config
        parallel = config.num_processes is not None
        choices = [("scheduler", config.scheduler, SCHEDULERS),
                   ("routing policy", config.routing, ROUTING_POLICIES)]
        if parallel:
            from ..parallel.runner import BACKENDS
            choices.append(("process backend", config.process_backend, BACKENDS))
        unbatched = not config.batched_inference
        flush_error = flush_policy_error(config.flush_policy, config.flush_timeout_us)
        plan = config.fault_plan
        crashes = plan is not None and not plan.empty
        shards, kinds, targets = 0, [], []
        if crashes:
            from ..faults.plan import SHARD_CRASH
            from ..parallel.runner import assign_workers
            shards = len(assign_workers(config.num_workers, config.num_processes or 1))
            kinds = sorted({event.kind for event in plan.events} - {SHARD_CRASH})
            targets = sorted({event.target for event in plan.of_kind(SHARD_CRASH)
                              if not 0 <= event.target < shards})
        return [
            (config.num_workers <= 0, "num_workers must be positive"),
            (config.num_replicas <= 0, "num_replicas must be positive"),
            (config.inference_max_batch is not None and config.inference_max_batch <= 0,
             "inference_max_batch must be positive (or None for the fleet share)"),
            (config.cache_capacity is not None and config.cache_capacity <= 0,
             "cache_capacity must be positive (or None to disable)"),
            (parallel and config.num_processes <= 0, "num_processes must be positive"),
            *((value not in known, f"unknown {what} {value!r}; expected one of {known}")
              for what, value, known in choices),
            (flush_error is not None, flush_error),
            (unbatched and config.num_replicas > 1,
             "num_replicas > 1 requires batched_inference=True "
             "(there is no inference service to shard otherwise)"),
            (unbatched and config.scheduler == SCHEDULER_EVENT,
             "the event-driven scheduler requires batched_inference=True "
             "(workers must block on a shared InferenceService)"),
            (unbatched and config.cache_capacity is not None,
             "cache_capacity requires batched_inference=True "
             "(the evaluation cache lives in the shared service)"),
            (parallel and config.scheduler != SCHEDULER_EVENT,
             "num_processes requires the event scheduler "
             "(shards are merged at serve boundaries)"),
            (parallel and config.cache_capacity is not None,
             "num_processes cannot be combined with the service evaluation "
             "cache: shards replay engine calls from their own pre-run "
             "timelines, so parent-side cache hits would desynchronize the "
             "shard replicas; run the cache single-process"),
            (parallel and store is not None,
             "num_processes cannot share a live store object "
             "across processes; pass trace_dir instead"),
            (crashes and not (parallel and config.process_backend == "process"),
             "fault_plan requires num_processes and process_backend='process' "
             "(only shard processes are crashed and respawned)"),
            (bool(kinds), f"a pool fault_plan may hold only shard-crash events, not {kinds}"),
            (bool(targets), f"fault_plan targets shards {targets} but the pool runs "
                            f"shards 0..{shards - 1}"),
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
        if self.config.num_processes is not None:
            self.runs = self._run_parallel(weights)
        else:
            self.runs = self._run_workers(weights)
        self._close_store()
        return self.runs

    def _run_workers(self, weights: Optional[list]) -> List[WorkerRun]:
        """Build every worker, then interleave their drivers under one scheduler."""
        stacks = self._build_workers(range(self.config.num_workers), weights)
        self._schedule([stack.driver for stack in stacks])
        return [self._finish_worker(stack, stack.profiler, stack.driver.result)
                for stack in stacks]

    def _schedule(self, drivers: Sequence[StepwiseDriver]) -> None:
        config = self.config
        flush_policy = (config.flush_policy if config.scheduler == SCHEDULER_EVENT
                        else FLUSH_UNBATCHED)
        self.pool_scheduler = PoolScheduler(drivers, self.inference_service,
                                            flush_policy=flush_policy,
                                            flush_timeout_us=config.flush_timeout_us)
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
        from ..parallel.runner import ParallelRunner

        num_workers = self.config.num_workers
        runner = ParallelRunner(self._shard_specs(weights),
                                backend=self.config.process_backend,
                                fault_plan=self.config.fault_plan)
        self.parallel_runner = runner
        try:
            self._build_workers((), weights, service_factory=partial(MirrorInferenceService,
                                                                     runner=runner))
            segments = runner.build()
            proxies = [ProxyDriver(runner, index, self._worker_name(index),
                                   self.inference_service, segments[index])
                       for index in range(num_workers)]
            runner.attach(proxies)
            self._schedule(proxies)
            finals = runner.finalize()
        finally:
            runner.stop()
        return [finals[index] for index in range(num_workers)]

    def _shard_specs(self, weights: Optional[list]) -> list:
        """One :class:`~repro.parallel.shard.ShardSpec` per shard process.

        Each shard rebuilds this pool single-process: its config drops
        ``num_processes`` and the ``fault_plan`` (the parent injects faults,
        so a respawned shard must never re-inject them).  The rules already
        force the event scheduler, batched inference and no evaluation cache
        on a multiprocess pool, so the shard runs with the same values.
        """
        from ..parallel.runner import assign_workers
        from ..parallel.shard import ShardSpec

        config = replace(self.config, num_processes=None, fault_plan=None)
        return [ShardSpec(kind=self.kind, pool_config=config, own_options=self.own_options,
                          worker_indices=indices, weights=weights)
                for indices in assign_workers(self.config.num_workers,
                                              self.config.num_processes)]

    # ----------------------------------------------------------- pool hooks
    def _build_workers(self, indices: Sequence[int], weights: Optional[list] = None,
                       service_factory=None) -> List[WorkerStack]:
        """Build the shared service and the workers ``indices``, in pool order.

        With no ``indices`` only the service is built: the parent of a
        multiprocess run, whose shards own every worker, passes the mirror
        service as ``service_factory``.  Sets :attr:`inference_service`.
        """
        raise NotImplementedError

    # ---------------------------------------------------------- worker parts
    def _worker_name(self, index: int) -> str:
        return f"{self.worker_prefix}_{index}"

    def _worker_system(self, index: int) -> Tuple[System, GraphEngine]:
        """One worker's system and engine: its own "process" on the shared GPU."""
        from .seeding import system_seed

        system = System.create(
            seed=system_seed(self.config.seed, index),
            config=self.config.cost_config,
            device=self.device,
            worker=self._worker_name(index),
        )
        system.cuda.default_stream = index
        return system, GraphEngine(system, flavor="tensorflow")

    def _worker_profiler(self, system: System, engine: GraphEngine,
                         envs: Sequence[object] = ()) -> Optional[Profiler]:
        if not self.config.profile:
            return None
        profiler = Profiler(system, ProfilerConfig.full(), worker=system.worker,
                            store=self._store)
        profiler.attach(engine=engine, envs=envs)
        return profiler

    def _finish_worker(self, worker, profiler: Optional[Profiler], result) -> WorkerRun:
        """One worker's run record; ``worker`` is anything carrying its ``system``."""
        # A streaming profiler's finalize returns None: the trace is in the store.
        trace = profiler.finalize() if profiler is not None else None
        return WorkerRun(worker=worker.system.worker, result=result, trace=trace,
                         total_time_us=worker.system.clock.now_us, system=worker.system)

    # ------------------------------------------------------------- reporting
    def traces(self) -> Dict[str, ColumnarTrace]:
        return {run.worker: run.trace for run in self.runs if run.trace is not None}

    def collection_span_us(self) -> float:
        """Wall-clock span of the parallel collection phase (slowest worker)."""
        return max((run.total_time_us for run in self.runs), default=0.0)


class EnvRolloutPool(WorkerPool):
    """Pool of env-rollout workers sharing one GPU and one inference service."""

    kind = "envrollout"
    worker_prefix = "rollout_worker"

    def __init__(self, sim: str, num_workers: int = 8, *, steps_per_worker: int = 32,
                 hidden: Tuple[int, ...] = (64, 64), env_kwargs: Optional[dict] = None,
                 policy_factory=None, store: Optional["StreamingTraceWriter"] = None,
                 **options) -> None:
        """Every worker runs ``steps_per_worker`` steps of the registered
        simulator ``sim`` (made with ``env_kwargs``), and every policy
        evaluation goes through one shared :class:`RolloutPolicyNet`
        (``hidden`` layers) with the env-appropriate service forward:
        softmax rows for discrete envs, raw action rows for continuous ones.
        ``policy_factory(env, seed)`` builds one
        :class:`~repro.rollout.envdriver.ActionPolicy` per worker (see
        ``repro.rl.zoo``); by default categorical sampling for discrete envs
        and gaussian exploration noise for continuous ones.  A multiprocess
        pool needs the default policy: live objects cannot cross the process
        boundary.  Every worker keeps its transitions in its run's result.

        ``options`` are :class:`PoolConfig` fields.  The evaluation cache
        serves envs whose :meth:`~repro.sim.base.Env.state_key` returns a
        stable hash; keyless envs bypass it row by row.
        """
        self._policy_factory = policy_factory
        super().__init__(PoolConfig(num_workers, **options), store, sim=sim,
                         steps_per_worker=steps_per_worker, hidden=hidden,
                         env_kwargs=dict(env_kwargs or {}))

    def _rules(self, store) -> List[Tuple[bool, str]]:
        return super()._rules(store) + [
            (self.steps_per_worker <= 0, "steps_per_worker must be positive"),
            (not self.config.batched_inference or self.config.scheduler != SCHEDULER_EVENT,
             "an env rollout pool requires batched_inference=True and the event "
             "scheduler (its workers evaluate only through the shared service; "
             "flush_policy='unbatched' serves each ticket alone)"),
            (self.config.num_processes is not None and self._policy_factory is not None,
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
            rng=np.random.default_rng(network_seed(self.config.seed)),
            name=f"zoo_{self.sim}")
        forward = None if probe_env.is_discrete else continuous_actor_forward
        return new_service(self.config, network, self.device, service_factory,
                           function_name=POLICY_FUNCTION_NAME, forward=forward)

    def _build_workers(self, indices, weights=None,
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
            driver = EnvRolloutDriver(
                env, client, self._make_policy(env, index), self.steps_per_worker,
                seed=driver_seed(self.config.seed, index), profiler=profiler)
            built.append(WorkerStack(driver, system, client, profiler))
        return built

    def _probe_env(self):
        """A throwaway env instance for shapes only — no worker stream touched."""
        return registry.make(self.sim, System.create(seed=0, worker="probe"),
                             seed=0, **self.env_kwargs)

    def _make_worker_stack(self, index: int):
        """Build one worker's system/engine/env/profiler (its "process")."""
        from .seeding import worker_seed

        system, engine = self._worker_system(index)
        env = registry.make(self.sim, system, seed=worker_seed(self.config.seed, index),
                            **self.env_kwargs)
        return system, engine, env, self._worker_profiler(system, engine, envs=(env,))

    def _make_policy(self, env, index: int) -> ActionPolicy:
        if self._policy_factory is not None:
            return self._policy_factory(env, driver_seed(self.config.seed, index))
        return SampledDiscretePolicy() if env.is_discrete else GaussianNoisePolicy()

    # ------------------------------------------------------------- reporting
    def total_steps(self) -> int:
        return sum(run.result.steps for run in self.runs)
