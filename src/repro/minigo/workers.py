"""Parallel self-play worker pool sharing a single GPU.

The paper's Minigo workload runs 16 self-play worker processes in parallel,
all submitting inference minibatches to one GPU (Section 4.3 / Appendix B.2).
Each worker here gets its own virtual clock, cost model, CUDA runtime and
CUPTI instance — its own process, in effect — while kernels land on a shared
:class:`~repro.hw.gpu.GPUDevice`, each worker on its own stream (its own CUDA
context).  Worker clocks share epoch zero, so the merged device timeline is
what an ``nvidia-smi`` sampler would observe during parallel data collection.

Without batched inference each worker evaluates leaves with its own
compiled network and simply runs to completion on its own virtual timeline
(the per-leaf workload Figure 8 measures).  With batched inference every
pool runs its workers under one :class:`~repro.rollout.scheduler.PoolScheduler`:
it interleaves all workers' stepwise
:class:`~repro.minigo.selfplay.GameDriver`s in virtual-time order and
serves the shared :class:`~repro.rollout.inference.InferenceService` once
every runnable worker is blocked at an inference boundary.  The
``scheduler`` argument only picks the flush policy of that one loop:

* ``sequential`` serves every ticket alone on its own worker's clock (the
  ``unbatched`` policy), so no batch ever mixes workers;
* ``event`` applies ``flush_policy``: one engine call batches leaves from
  many workers at the same virtual instant, the way a real inference server
  batches across client processes.  With several model replicas
  (``num_replicas > 1``) the scheduler additionally serves *full* batches
  eagerly, so free replicas start in-flight batches while the remaining
  workers keep running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..tracedb.store import TraceDB
    from ..tracedb.writer import StreamingTraceWriter

from ..backend.graph import GraphEngine
from ..backend.layers import hard_update
from ..hw.costmodel import CostModelConfig
from ..hw.gpu import GPUDevice
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.events import EventTrace
from ..rollout.inference import (
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
    ROUTING_POLICIES,
    ROUTING_ROUND_ROBIN,
    InferenceService,
    RoutingPolicy,
)
from ..rollout.scheduler import PoolScheduler
from ..system import System
from .selfplay import GameDriver, PolicyValueNet, SelfPlayResult, SelfPlayWorker

#: Scheduler modes understood by :class:`SelfPlayPool`.
SCHEDULER_SEQUENTIAL = "sequential"
SCHEDULER_EVENT = "event"
SCHEDULERS = (SCHEDULER_SEQUENTIAL, SCHEDULER_EVENT)


@dataclass
class WorkerRun:
    """Output of one worker in the pool.

    ``trace`` is ``None`` when profiling is off or when the pool streams
    traces into a shared store (query them via :meth:`SelfPlayPool.tracedb`);
    ``system`` is ``None`` for runs reconstructed without a live system.
    """

    worker: str
    result: SelfPlayResult
    trace: Optional[EventTrace]
    total_time_us: float
    system: Optional[System] = field(repr=False, default=None)


class SelfPlayPool:
    """Pool of self-play workers that share one GPU device.

    Workers run on independent virtual timelines starting at zero, which is
    equivalent to running them in parallel on a machine with enough CPU
    cores (the paper uses one worker per core).
    """

    def __init__(
        self,
        num_workers: int = 16,
        *,
        board_size: int = 9,
        num_simulations: int = 16,
        games_per_worker: int = 1,
        max_moves: Optional[int] = None,
        hidden: tuple = (128, 128),
        profile: bool = True,
        cost_config: Optional[CostModelConfig] = None,
        seed: int = 0,
        trace_dir: Optional[str] = None,
        store: Optional["StreamingTraceWriter"] = None,
        chunk_events: int = 50_000,
        batched_inference: bool = False,
        leaf_batch: int = 1,
        inference_max_batch: int = 64,
        num_replicas: int = 1,
        routing: "str | RoutingPolicy" = ROUTING_ROUND_ROBIN,
        scheduler: str = SCHEDULER_SEQUENTIAL,
        flush_policy: str = FLUSH_MAX_BATCH,
        flush_timeout_us: Optional[float] = None,
        num_processes: Optional[int] = None,
        process_backend: str = "process",
        fault_plan=None,
        transposition: bool = False,
        cache_capacity: Optional[int] = None,
        cache_scope: str = "shared",
    ) -> None:
        """With ``batched_inference=True`` the pool creates one shared
        :class:`~repro.rollout.inference.InferenceService` holding
        ``num_replicas`` model replicas behind the ``routing`` policy
        (``round-robin``, ``least-loaded``, ``sticky``, or a
        :class:`~repro.rollout.inference.RoutingPolicy` instance); replica 0
        shares the pool's primary GPU, further replicas each model an
        additional inference GPU.  Every worker's MCTS collects up to
        ``leaf_batch`` in-flight leaves per wave for batched evaluation
        through the service.  At ``leaf_batch=1`` the batched path
        reproduces the legacy per-leaf game records move-for-move under
        identical seeds, and at ``num_replicas=1`` (any routing) the sharded
        service reproduces the single-replica timelines bit-for-bit.

        A batched pool always runs its workers under a
        :class:`PoolScheduler` that interleaves them at wave granularity.
        The default ``scheduler="sequential"`` serves each ticket alone
        (the ``unbatched`` flush policy, ignoring ``flush_policy``).
        ``scheduler="event"`` (requires ``batched_inference``) serves the
        service under ``flush_policy`` instead (``max-batch``, ``timeout``
        with ``flush_timeout_us``, or ``unbatched`` — the bit-for-bit
        determinism baseline), so engine calls batch leaves across
        workers; with several replicas the scheduler also serves full
        batches eagerly so free replicas overlap in-flight batches with
        still-running workers.

        ``num_processes`` (requires the event scheduler) shards the workers
        over that many real OS processes via :mod:`repro.parallel`: shards
        advance their drivers between serves while the parent merges their
        virtual timelines and runs the shared service — records, clocks,
        scheduler decisions and service stats are bit-for-bit those of the
        single-process event loop.  ``process_backend="inline"`` runs the
        shards in-process (CI/debugging).

        ``transposition`` turns on each worker's per-search MCTS
        transposition table; ``cache_capacity`` enables the shared
        service's LRU evaluation cache (requires ``batched_inference``) and
        makes every wave submission carry Zobrist position keys, with
        ``cache_scope`` choosing one service-wide cache or one per replica.
        Both default off, preserving today's runs bit-for-bit."""
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if num_replicas > 1 and not batched_inference:
            raise ValueError("num_replicas > 1 requires batched_inference=True "
                             "(there is no inference service to shard otherwise)")
        if isinstance(routing, str) and routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {routing!r}; "
                             f"expected one of {ROUTING_POLICIES}")
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
        if scheduler == SCHEDULER_EVENT:
            if not batched_inference:
                raise ValueError("the event-driven scheduler requires batched_inference=True "
                                 "(workers must block on a shared InferenceService)")
            if flush_policy not in FLUSH_POLICIES:
                raise ValueError(f"unknown flush policy {flush_policy!r}; "
                                 f"expected one of {FLUSH_POLICIES}")
            if flush_policy == FLUSH_TIMEOUT and (flush_timeout_us is None or flush_timeout_us < 0):
                raise ValueError("the timeout flush policy requires a non-negative flush_timeout_us")
        from ..rollout.evalcache import CACHE_SCOPES
        if cache_scope not in CACHE_SCOPES:
            raise ValueError(f"unknown cache scope {cache_scope!r}; "
                             f"expected one of {CACHE_SCOPES}")
        if cache_capacity is not None and not batched_inference:
            raise ValueError("cache_capacity requires batched_inference=True "
                             "(the evaluation cache lives in the shared service)")
        if num_processes is not None:
            from ..parallel.runner import BACKENDS
            if num_processes <= 0:
                raise ValueError("num_processes must be positive")
            if cache_capacity is not None:
                raise ValueError(
                    "num_processes cannot be combined with the service evaluation "
                    "cache: shards replay engine calls from their own pre-run "
                    "timelines, so parent-side cache hits would desynchronize the "
                    "shard replicas; run the cache single-process")
            if scheduler != SCHEDULER_EVENT:
                raise ValueError("num_processes requires the event scheduler "
                                 "(shards are merged at serve boundaries)")
            if store is not None:
                raise ValueError("num_processes cannot share a live store object "
                                 "across processes; pass trace_dir instead")
            if process_backend not in BACKENDS:
                raise ValueError(f"unknown process backend {process_backend!r}; "
                                 f"expected one of {BACKENDS}")
        self.num_workers = num_workers
        self.board_size = board_size
        self.num_simulations = num_simulations
        self.games_per_worker = games_per_worker
        self.max_moves = max_moves
        self.hidden = hidden
        self.profile = profile
        self.cost_config = cost_config
        self.seed = seed
        self.batched_inference = batched_inference
        self.leaf_batch = leaf_batch
        self.inference_max_batch = inference_max_batch
        self.num_replicas = num_replicas
        self.routing = routing
        self.scheduler = scheduler
        self.flush_policy = flush_policy
        self.flush_timeout_us = flush_timeout_us
        self.num_processes = num_processes
        self.process_backend = process_backend
        #: optional :class:`~repro.faults.plan.FaultPlan` for the multiprocess
        #: tier (shard crashes -> respawn + journal replay).  Excluded from
        #: :meth:`_child_config`: the parent injects faults, respawned shards
        #: must never re-inject them.
        self.fault_plan = fault_plan
        self.transposition = transposition
        self.cache_capacity = cache_capacity
        self.cache_scope = cache_scope
        self.trace_dir = trace_dir
        self.chunk_events = chunk_events
        self.inference_service: Optional[InferenceService] = None
        self.pool_scheduler: Optional[PoolScheduler] = None
        #: the shared accelerator all workers contend for
        self.device = GPUDevice()
        self.runs: List[WorkerRun] = []
        # Streaming trace store: every worker writes its own shard into one
        # store (either a shared writer passed in, or one owned by the pool).
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
    def run(self, weights: Optional[List[np.ndarray]] = None) -> List[WorkerRun]:
        """Run every worker's self-play session; returns per-worker results."""
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
            return self._run_parallel(weights)
        if self.batched_inference:
            self.inference_service = self._build_service()
            if weights is not None:
                # Initial model placement: load without charging broadcast
                # time (clocks have not started).
                self.inference_service.update_weights(weights, charge=False)
            # Build every worker first (in index order, so all RNG streams
            # are fixed), then interleave their stepwise drivers on the
            # shared virtual timeline.
            workers = [self._make_worker(index, weights) for index in range(self.num_workers)]
            drivers = [GameDriver(worker, self.games_per_worker) for worker, _ in workers]
            flush_policy = (self.flush_policy if self.scheduler == SCHEDULER_EVENT
                            else FLUSH_UNBATCHED)
            self.pool_scheduler = PoolScheduler(
                drivers, self.inference_service,
                flush_policy=flush_policy, flush_timeout_us=self.flush_timeout_us)
            self.pool_scheduler.run()
            self.runs = [self._finish_worker(worker, profiler, driver.result)
                         for (worker, profiler), driver in zip(workers, drivers)]
        else:
            for index in range(self.num_workers):
                worker, profiler = self._make_worker(index, weights)
                result = worker.play_games(self.games_per_worker)
                self.runs.append(self._finish_worker(worker, profiler, result))
        if self.streaming:
            self._streamed = True
            if self._owns_store:
                self._store.close()
        return self.runs

    def _build_service(self, service_factory=None) -> InferenceService:
        """Build the shared service: one logical model, ``num_replicas`` shards.

        With the same init seed as the legacy per-worker networks the shared
        model's weights are identical; replica 0 shares the pool's primary
        GPU, further replicas each model an additional inference GPU.
        ``service_factory`` substitutes the class (the multiprocess path
        passes the parent-side mirror service).
        """
        from ..rollout.seeding import network_seed

        factory = service_factory if service_factory is not None else InferenceService
        shared_network = PolicyValueNet(self.board_size, self.hidden,
                                        rng=np.random.default_rng(network_seed(self.seed)))
        kwargs = {}
        if self.cache_capacity is not None:
            # Only passed when enabled, so the mirror-service factory (which
            # predates the cache and rejects it at the pool level) keeps its
            # original signature.
            kwargs.update(cache_capacity=self.cache_capacity,
                          cache_scope=self.cache_scope)
        return factory(
            shared_network,
            max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            primary_device=self.device,
            cost_config=self.cost_config,
            seed=self.seed,
            **kwargs,
        )

    def _child_config(self) -> dict:
        """Constructor kwargs a shard process rebuilds this pool from."""
        return dict(
            num_workers=self.num_workers,
            board_size=self.board_size,
            num_simulations=self.num_simulations,
            games_per_worker=self.games_per_worker,
            max_moves=self.max_moves,
            hidden=self.hidden,
            profile=self.profile,
            cost_config=self.cost_config,
            seed=self.seed,
            trace_dir=self.trace_dir,
            chunk_events=self.chunk_events,
            batched_inference=True,
            leaf_batch=self.leaf_batch,
            inference_max_batch=self.inference_max_batch,
            num_replicas=self.num_replicas,
            routing=self.routing,
            scheduler=SCHEDULER_EVENT,
            flush_policy=self.flush_policy,
            flush_timeout_us=self.flush_timeout_us,
            transposition=self.transposition,
        )

    def _run_parallel(self, weights: Optional[List[np.ndarray]]) -> List[WorkerRun]:
        """Run the pool sharded over ``num_processes`` OS processes.

        Shards build and advance the real worker stacks; the parent replays
        their timelines through proxy drivers under the real scheduler and
        the mirror service, so every scheduling/batching/routing decision —
        and therefore every record and clock — matches the sequential event
        loop bit-for-bit.
        """
        from functools import partial

        from ..parallel.proxy import MirrorInferenceService, ProxyDriver
        from ..parallel.runner import ParallelRunner, assign_workers
        from ..parallel.shard import ShardSpec

        config = self._child_config()
        specs = [ShardSpec(kind="selfplay", pool_config=config,
                           worker_indices=indices, weights=weights)
                 for indices in assign_workers(self.num_workers, self.num_processes)]
        runner = ParallelRunner(specs, backend=self.process_backend,
                                fault_plan=self.fault_plan)
        self.parallel_runner = runner
        try:
            service = self._build_service(
                service_factory=partial(MirrorInferenceService, runner=runner))
            if weights is not None:
                service.update_weights(weights, charge=False)
            self.inference_service = service
            segments = runner.build()
            proxies = [ProxyDriver(runner, index, f"selfplay_worker_{index}",
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
        self.runs = [WorkerRun(worker=f"selfplay_worker_{index}",
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

    def _make_worker(self, index: int, weights: Optional[List[np.ndarray]]
                     ) -> Tuple[SelfPlayWorker, Optional[Profiler]]:
        """Build one worker's system/engine/profiler stack (its "process")."""
        from ..rollout.seeding import network_seed, system_seed, worker_seed

        worker_name = f"selfplay_worker_{index}"
        system = System.create(
            seed=system_seed(self.seed, index),
            config=self.cost_config,
            device=self.device,
            worker=worker_name,
        )
        system.cuda.default_stream = index
        engine = GraphEngine(system, flavor="tensorflow")
        if self.inference_service is not None:
            network = self.inference_service.network
        else:
            network = PolicyValueNet(self.board_size, self.hidden,
                                     rng=np.random.default_rng(network_seed(self.seed)))
            if weights is not None:
                network.load_state_dict(weights)

        profiler: Optional[Profiler] = None
        if self.profile:
            profiler = Profiler(system, ProfilerConfig.full(), worker=worker_name,
                                store=self._store)
            profiler.attach(engine=engine)

        worker = SelfPlayWorker(
            system, engine, network,
            profiler=profiler,
            board_size=self.board_size,
            num_simulations=self.num_simulations,
            max_moves=self.max_moves,
            seed=worker_seed(self.seed, index),
            leaf_batch=self.leaf_batch,
            inference=self.inference_service,
            transposition=self.transposition,
            emit_state_keys=self.cache_capacity is not None,
        )
        return worker, profiler

    def _finish_worker(self, worker: SelfPlayWorker, profiler: Optional[Profiler],
                       result: SelfPlayResult) -> WorkerRun:
        trace = profiler.finalize() if profiler is not None else None
        if self.streaming:
            # The trace lives in the store's shard; keep runs lightweight.
            trace = None
        return WorkerRun(worker=worker.system.worker, result=result, trace=trace,
                         total_time_us=worker.system.clock.now_us, system=worker.system)

    # ------------------------------------------------------------- reporting
    def traces(self) -> Dict[str, EventTrace]:
        return {run.worker: run.trace for run in self.runs if run.trace is not None}

    def all_examples(self):
        examples = []
        for run in self.runs:
            examples.extend(run.result.examples)
        return examples

    def collection_span_us(self) -> float:
        """Wall-clock span of the parallel collection phase (slowest worker)."""
        return max((run.total_time_us for run in self.runs), default=0.0)
