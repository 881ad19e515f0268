"""Parallel self-play worker pool sharing a single GPU.

The paper's Minigo workload runs 16 self-play worker processes in parallel,
all submitting inference minibatches to one GPU (Section 4.3 / Appendix B.2).
Each worker here gets its own virtual clock, cost model, CUDA runtime and
CUPTI instance — its own process, in effect — while kernels land on a shared
:class:`~repro.hw.gpu.GPUDevice`, each worker on its own stream (its own CUDA
context).  Worker clocks share epoch zero, so the merged device timeline is
what an ``nvidia-smi`` sampler would observe during parallel data collection.

:class:`SelfPlayPool` adds only what is Minigo's own to the shared
:class:`~repro.rollout.pool.WorkerPool` core (validation, trace store, run
loop, multiprocess path): its self-play workers and their game drivers,
its service, and the non-batched per-worker path.

Without batched inference each worker evaluates leaves with its own
compiled network and simply runs to completion on its own virtual timeline
(the per-leaf workload Figure 8 measures).  With batched inference the
pool runs its workers under one :class:`~repro.rollout.scheduler.PoolScheduler`:
it interleaves all workers' stepwise drivers in virtual-time order and
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

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..tracedb.writer import StreamingTraceWriter

from ..profiler.api import Profiler
from ..rollout.inference import InferenceService
from ..rollout.pool import (  # the SCHEDULER* names and WorkerRun are re-exported
    SCHEDULER_EVENT,
    SCHEDULER_SEQUENTIAL,
    SCHEDULERS,
    PoolConfig,
    WorkerPool,
    WorkerRun,
    WorkerStack,
)
from .selfplay import GameDriver, PolicyValueNet, SelfPlayWorker


class SelfPlayPool(WorkerPool):
    """Pool of self-play workers that share one GPU device.

    Workers run on independent virtual timelines starting at zero, which is
    equivalent to running them in parallel on a machine with enough CPU
    cores (the paper uses one worker per core).
    """

    kind = "selfplay"
    worker_prefix = "selfplay_worker"

    def __init__(self, num_workers: int = 16, *, board_size: int = 9,
                 num_simulations: int = 16, games_per_worker: int = 1,
                 max_moves: Optional[int] = None, hidden: tuple = (128, 128),
                 leaf_batch: int = 1, transposition: bool = False, profile: bool = True,
                 batched_inference: bool = False, inference_max_batch: int = 64,
                 scheduler: str = SCHEDULER_SEQUENTIAL,
                 store: Optional["StreamingTraceWriter"] = None, **options) -> None:
        """Every worker plays ``games_per_worker`` games of ``board_size`` Go
        with ``num_simulations`` MCTS simulations per move on a
        ``hidden``-layer :class:`PolicyValueNet`.

        With ``batched_inference=True`` every worker's MCTS collects up to
        ``leaf_batch`` in-flight leaves per wave for batched evaluation
        through one shared :class:`~repro.rollout.inference.InferenceService`.
        At ``leaf_batch=1`` the batched path reproduces the legacy per-leaf
        game records move-for-move under identical seeds, and at
        ``num_replicas=1`` (any routing) the sharded service reproduces the
        single-replica timelines bit-for-bit.  ``scheduler`` picks the flush
        policy of the one scheduler loop a batched pool runs (see the module
        docstring).

        ``transposition`` turns on each worker's per-search MCTS
        transposition table; with ``cache_capacity`` set every wave
        submission carries Zobrist position keys for the shared service's
        cache.  Both default off, preserving today's runs bit-for-bit.
        ``options`` are the other :class:`~repro.rollout.pool.PoolConfig`
        fields."""
        super().__init__(
            PoolConfig(num_workers, profile=profile, batched_inference=batched_inference,
                       inference_max_batch=inference_max_batch, scheduler=scheduler,
                       **options),
            store, board_size=board_size, num_simulations=num_simulations,
            games_per_worker=games_per_worker, max_moves=max_moves, hidden=hidden,
            leaf_batch=leaf_batch, transposition=transposition)

    # ------------------------------------------------------------------ run
    def run(self, weights: Optional[List[np.ndarray]] = None) -> List[WorkerRun]:
        """Run every worker's self-play session; returns per-worker results."""
        return self._run(weights)

    def _run_workers(self, weights: Optional[List[np.ndarray]]) -> List[WorkerRun]:
        if self.config.batched_inference:
            return super()._run_workers(weights)
        # Per-worker path: each worker evaluates leaves with its own network
        # and plays to completion on its own timeline before the next starts.
        runs = []
        for index in range(self.config.num_workers):
            worker, profiler = self._make_worker(index, weights)
            result = worker.play_games(self.games_per_worker)
            runs.append(self._finish_worker(worker, profiler, result))
        return runs

    def _build_service(self, service_factory=None) -> InferenceService:
        """Build the shared service: one logical model, ``num_replicas`` shards.

        With the same init seed as the legacy per-worker networks the shared
        model's weights are identical.
        """
        from ..rollout.seeding import network_seed

        network = PolicyValueNet(self.board_size, self.hidden,
                                 rng=np.random.default_rng(network_seed(self.config.seed)))
        return self._new_service(network, service_factory)

    def _build_workers(self, indices, weights=None,
                       service_factory=None) -> List[WorkerStack]:
        # The service first, then every worker in index order, so all RNG
        # streams are fixed before any driver runs.
        self.inference_service = self._build_service(service_factory)
        if weights is not None:
            # Initial model placement: load without charging broadcast time
            # (clocks have not started).
            self.inference_service.update_weights(weights, charge=False)
        built = []
        for index in indices:
            worker, profiler = self._make_worker(index, weights)
            built.append(WorkerStack(GameDriver(worker, self.games_per_worker),
                                     worker.system, worker._client, profiler))
        return built

    def _make_worker(self, index: int, weights: Optional[List[np.ndarray]]
                     ) -> Tuple[SelfPlayWorker, Optional[Profiler]]:
        """Build one worker's system/engine/profiler stack (its "process")."""
        from ..rollout.seeding import network_seed, worker_seed

        system, engine = self._worker_system(index)
        if self.inference_service is not None:
            network = self.inference_service.network
        else:
            network = PolicyValueNet(self.board_size, self.hidden,
                                     rng=np.random.default_rng(network_seed(self.config.seed)))
            if weights is not None:
                network.load_state_dict(weights)
        profiler = self._worker_profiler(system, engine)
        worker = SelfPlayWorker(
            system, engine, network,
            profiler=profiler,
            board_size=self.board_size,
            num_simulations=self.num_simulations,
            max_moves=self.max_moves,
            seed=worker_seed(self.config.seed, index),
            leaf_batch=self.leaf_batch,
            inference=self.inference_service,
            transposition=self.transposition,
            emit_state_keys=self.config.cache_capacity is not None,
        )
        return worker, profiler

    # ------------------------------------------------------------- reporting
    def all_examples(self):
        return [example for run in self.runs for example in run.result.examples]
