"""The full Minigo training round: self-play, SGD updates, evaluation.

One *generation* of Minigo training (Appendix B.2.2 of the paper) consists of
three phases:

1. **Self-play** — the current model plays games against itself across a pool
   of parallel worker processes, producing (position, visit-distribution,
   outcome) training examples.
2. **SGD updates** — a trainer process updates the policy/value network on
   the collected examples, producing a candidate model.
3. **Evaluation** — the candidate plays the current model; the winner becomes
   the model of the next generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import functional as F
from ..backend.autodiff import Tape
from ..backend.context import use_engine
from ..backend.graph import GraphEngine
from ..backend.optimizers import Adam
from ..backend.tensor import Tensor
from ..hw.gpu import GPUDevice
from ..hw.nvidia_smi import UtilizationReport, sample_utilization
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.columns import ColumnarTrace
from ..rollout.driver import StepwiseDriver
from ..rollout.inference import InferenceService, InferenceStats, InferenceTicket
from ..rollout.pool import PoolConfig, new_service
from ..rollout.scheduler import PoolScheduler, SchedulerStats
from ..sim.go import GoPosition
from ..system import System
from .mcts import MCTS, LeafEvalRequest, SearchCursor
from .selfplay import (
    _NULL_OPERATION,
    OP_TREE_SEARCH,
    TREE_SEARCH_UNITS_PER_SIM,
    PolicyValueNet,
    SelfPlayExample,
    SelfPlayWorker,
)
from .workers import SCHEDULER_SEQUENTIAL, SelfPlayPool, WorkerRun


@dataclass
class MinigoRoundResult:
    """Everything produced by one Minigo training round."""

    worker_runs: List[WorkerRun]
    trainer_trace: Optional[ColumnarTrace]
    trainer_time_us: float
    evaluation_trace: Optional[ColumnarTrace]
    evaluation_time_us: float
    candidate_wins: int
    evaluation_games: int
    candidate_accepted: bool
    losses: List[float] = field(default_factory=list)
    device: Optional[GPUDevice] = None
    #: Set when the round streamed every phase's trace into a TraceDB store.
    trace_dir: Optional[str] = None
    #: Batching behaviour of the self-play phase's shared service (None when
    #: batched inference is off).
    selfplay_inference_stats: Optional[InferenceStats] = None
    #: Batching behaviour of the candidate-evaluation phase's shared service.
    evaluation_inference_stats: Optional[InferenceStats] = None
    #: Event-loop counters of the self-play phase (None without batched
    #: inference).
    scheduler_stats: Optional[SchedulerStats] = None
    #: Per-replica batching stats of the self-play service (index-aligned;
    #: None when batched inference is off).
    selfplay_replica_stats: Optional[List[InferenceStats]] = None
    #: Virtual time to broadcast the round's outgoing weights to every
    #: inference replica (0.0 without batched inference).  Reported for
    #: between-round accounting; collection-phase clocks restart at zero
    #: each round, so the broadcast does not delay later rounds' timelines.
    weight_broadcast_us: float = 0.0
    #: Shard processes the self-play phase ran in (None: this process).
    selfplay_processes: Optional[int] = None

    def traces(self) -> Dict[str, ColumnarTrace]:
        traces = {run.worker: run.trace for run in self.worker_runs if run.trace is not None}
        if self.trainer_trace is not None:
            traces["trainer"] = self.trainer_trace
        if self.evaluation_trace is not None:
            traces["evaluate_candidate_model"] = self.evaluation_trace
        return traces

    def utilization(self, *, sample_period_us: float = 250_000.0) -> UtilizationReport:
        """nvidia-smi style utilization over the parallel data-collection window.

        Only a single-process round has one: a sharded round's self-play
        kernels ran on the shards' devices, and merging their activity lists
        would not reproduce one shared device's stream queueing.
        """
        if self.device is None:
            raise ValueError("no device recorded for this round")
        if self.selfplay_processes is not None:
            raise ValueError(
                f"the self-play kernels ran in {self.selfplay_processes} shard "
                "processes, so this round's device holds only the trainer and "
                "evaluation kernels; run the round without num_processes")
        window_end = max((run.total_time_us for run in self.worker_runs), default=0.0)
        return sample_utilization(self.device, window_end_us=window_end,
                                  sample_period_us=sample_period_us)


@dataclass(frozen=True)
class MinigoConfig(PoolConfig):
    """One training round: its self-play pool's options plus Minigo's own.

    Every :class:`~repro.rollout.pool.PoolConfig` field configures the
    self-play pool (and the evaluation phase's service and scheduler) as
    documented there; the five redeclared below are
    :class:`~repro.minigo.workers.SelfPlayPool`'s defaults.  ``trace_dir``
    differs in one way: each round streams every phase into its own
    ``round_NNN`` store under it, because worker clocks restart at zero
    every round and rounds must not share shards.  Defaults are
    reproduction-sized.
    """

    num_workers: int = 16
    profile: bool = True
    batched_inference: bool = False
    inference_max_batch: Optional[int] = 64
    scheduler: str = SCHEDULER_SEQUENTIAL
    board_size: int = 5
    num_simulations: int = 8
    games_per_worker: int = 1
    max_moves: Optional[int] = None
    hidden: Tuple[int, int] = (128, 128)
    #: in-flight leaves each MCTS wave collects per batched evaluation
    #: (1 reproduces the legacy per-leaf search decision-for-decision)
    leaf_batch: int = 1
    #: per-search MCTS transposition table: DAG-share identical positions
    #: reached by different move orders inside one search
    transposition: bool = False
    sgd_steps: int = 32
    sgd_batch_size: int = 32
    learning_rate: float = 1e-2
    evaluation_games: int = 2
    acceptance_threshold: float = 0.55


#: ``MinigoConfig`` fields only the training and evaluation phases read;
#: every other field is a :class:`SelfPlayPool` keyword.
_TRAINING_FIELDS = ("sgd_steps", "sgd_batch_size", "learning_rate", "evaluation_games",
                    "acceptance_threshold")


class MinigoTraining:
    """Drives one (or more) Minigo training rounds."""

    def __init__(self, config: Optional[MinigoConfig] = None) -> None:
        self.config = config if config is not None else MinigoConfig()
        rng = np.random.default_rng(self.config.seed + 7)
        self.current_weights = PolicyValueNet(self.config.board_size, self.config.hidden,
                                              rng=rng).state_dict()
        self._round_counter = 0

    # ------------------------------------------------------------------ round
    def run_round(self) -> MinigoRoundResult:
        cfg = self.config
        # One shared streaming store for every phase's shards (when enabled),
        # in a fresh per-round directory so earlier rounds stay readable.
        store = None
        round_dir: Optional[str] = None
        if cfg.trace_dir is not None and cfg.profile:
            import os
            from ..tracedb.writer import StreamingTraceWriter
            round_dir = os.path.join(cfg.trace_dir, f"round_{self._round_counter:03d}")
            self._round_counter += 1
            store = StreamingTraceWriter(round_dir, chunk_events=cfg.chunk_events)
        # Phase 1: parallel self-play data collection.
        options = {name: value for name, value in vars(cfg).items()
                   if name not in _TRAINING_FIELDS}
        pool = SelfPlayPool(**dict(options, trace_dir=None), store=store)
        runs = pool.run(self.current_weights)
        examples = pool.all_examples()

        # Phase 2: SGD updates on a trainer process (shares the same GPU).
        candidate_weights, losses, trainer_trace, trainer_time = self._train_candidate(
            examples, pool.device, store)

        # Phase 3: evaluation games between current and candidate models.
        wins, eval_trace, eval_time, eval_stats = self._evaluate_candidate(
            candidate_weights, pool.device, store)
        if store is not None:
            store.close()
        accepted = wins / max(cfg.evaluation_games, 1) >= cfg.acceptance_threshold
        if accepted:
            self.current_weights = candidate_weights

        # Propagate the round's outgoing weights to every inference replica
        # and record the virtual broadcast span.  The cost is *reported*
        # (weight_broadcast_us), not enforced on later rounds: each round
        # builds a fresh pool whose clocks restart at zero, with the weights
        # pre-placed before collection starts (update_weights(charge=False)).
        broadcast_us = 0.0
        if pool.inference_service is not None:
            broadcast_us = pool.inference_service.update_weights(self.current_weights)

        return MinigoRoundResult(
            worker_runs=runs,
            trainer_trace=trainer_trace,
            trainer_time_us=trainer_time,
            evaluation_trace=eval_trace,
            evaluation_time_us=eval_time,
            candidate_wins=wins,
            evaluation_games=cfg.evaluation_games,
            candidate_accepted=accepted,
            losses=losses,
            device=pool.device,
            trace_dir=round_dir,
            selfplay_inference_stats=(pool.inference_service.stats
                                      if pool.inference_service is not None else None),
            evaluation_inference_stats=eval_stats,
            scheduler_stats=(pool.pool_scheduler.stats
                             if pool.pool_scheduler is not None else None),
            selfplay_replica_stats=(
                [replica.stats for replica in pool.inference_service.replicas]
                if pool.inference_service is not None else None),
            weight_broadcast_us=broadcast_us,
            selfplay_processes=cfg.num_processes,
        )

    # ----------------------------------------------------------------- phase 2
    def _train_candidate(self, examples: List[SelfPlayExample], device: GPUDevice, store=None):
        cfg = self.config
        system = System.create(seed=cfg.seed + 5, config=cfg.cost_config,
                               device=device, worker="trainer")
        system.cuda.default_stream = cfg.num_workers + 1
        engine = GraphEngine(system, flavor="tensorflow")
        profiler: Optional[Profiler] = None
        if cfg.profile:
            profiler = Profiler(system, ProfilerConfig.full(), worker="trainer", store=store)
            profiler.attach(engine=engine)
            profiler.set_phase("sgd_updates")

        rng = np.random.default_rng(cfg.seed + 11)
        losses: List[float] = []
        with use_engine(engine):
            network = PolicyValueNet(cfg.board_size, cfg.hidden, rng=np.random.default_rng(cfg.seed + 7))
            network.load_state_dict(self.current_weights)
            optimizer = Adam(network.parameters(), lr=cfg.learning_rate)
            update = engine.function(self._sgd_step, name="minigo_train_step", num_feeds=3)
            if examples:
                for _ in range(cfg.sgd_steps):
                    batch_indices = rng.integers(0, len(examples), size=min(cfg.sgd_batch_size, len(examples)))
                    features = np.stack([examples[i].features for i in batch_indices])
                    policies = np.stack([examples[i].policy_target for i in batch_indices])
                    values = np.array([examples[i].value_target for i in batch_indices], dtype=np.float32)
                    if profiler is not None:
                        with profiler.operation("backpropagation"):
                            losses.append(update(network, optimizer, features, policies, values))
                    else:
                        losses.append(update(network, optimizer, features, policies, values))
            candidate_weights = network.state_dict()

        trace = profiler.finalize() if profiler is not None else None
        return candidate_weights, losses, trace, system.clock.now_us

    @staticmethod
    def _sgd_step(network: PolicyValueNet, optimizer: Adam, features: np.ndarray,
                  policies: np.ndarray, values: np.ndarray) -> float:
        with Tape() as tape:
            logits, value = network(Tensor(features))
            log_probs = F.log_softmax(logits)
            policy_loss = F.neg(F.reduce_mean(F.reduce_sum(F.mul(Tensor(policies), log_probs), axis=-1)))
            value_loss = F.mse_loss(value, Tensor(values.reshape(-1, 1)))
            loss = F.add(policy_loss, value_loss)
        grads = tape.gradient(loss, network.parameters())
        optimizer.step(grads)
        return loss.item()

    # ----------------------------------------------------------------- phase 3
    def _evaluate_candidate(self, candidate_weights: List[np.ndarray], device: GPUDevice, store=None):
        cfg = self.config
        system = System.create(seed=cfg.seed + 6, config=cfg.cost_config,
                               device=device, worker="evaluate_candidate_model")
        system.cuda.default_stream = cfg.num_workers + 2
        engine = GraphEngine(system, flavor="tensorflow")
        profiler: Optional[Profiler] = None
        if cfg.profile:
            profiler = Profiler(system, ProfilerConfig.full(), worker="evaluate_candidate_model",
                                store=store)
            profiler.attach(engine=engine)
            profiler.set_phase("evaluation")

        with use_engine(engine):
            current = PolicyValueNet(cfg.board_size, cfg.hidden, rng=np.random.default_rng(cfg.seed + 7))
            current.load_state_dict(self.current_weights)
            candidate = PolicyValueNet(cfg.board_size, cfg.hidden, rng=np.random.default_rng(cfg.seed + 7))
            candidate.load_state_dict(candidate_weights)

            # With batched inference on, both evaluation workers share one
            # InferenceService queue: each side's MCTS waves (leaf_batch
            # leaves per wave) go through one batched engine call instead of
            # per-leaf evaluations on private compiled evaluators.  Rows of
            # the two models never share a matmul — the candidate client
            # carries its own network — but both ride the same service,
            # replica bookkeeping and stats.
            eval_service: Optional[InferenceService] = None
            current_client = candidate_client = None
            if cfg.batched_inference:
                eval_service = new_service(cfg, current, device, name="evaluation_inference")
                current_client = eval_service.connect(system, engine, worker="evaluation_current")
                candidate_client = eval_service.connect(system, engine, worker="evaluation_candidate",
                                                        network=candidate)

            eval_leaf_batch = cfg.leaf_batch if cfg.batched_inference else 1
            emit_keys = cfg.batched_inference and cfg.cache_capacity is not None
            current_worker = SelfPlayWorker(system, engine, current, profiler=profiler,
                                            board_size=cfg.board_size,
                                            num_simulations=max(cfg.num_simulations // 2, 2),
                                            max_moves=cfg.max_moves, seed=cfg.seed + 21,
                                            leaf_batch=eval_leaf_batch,
                                            inference=eval_service, inference_client=current_client,
                                            transposition=cfg.transposition,
                                            emit_state_keys=emit_keys)
            candidate_worker = SelfPlayWorker(system, engine, candidate, profiler=profiler,
                                              board_size=cfg.board_size,
                                              num_simulations=max(cfg.num_simulations // 2, 2),
                                              max_moves=cfg.max_moves, seed=cfg.seed + 22,
                                              leaf_batch=eval_leaf_batch,
                                              inference=eval_service, inference_client=candidate_client,
                                              transposition=cfg.transposition,
                                              emit_state_keys=emit_keys)

            # All evaluation games run *concurrently*: one stepwise driver
            # per game, interleaved by the pool scheduler, so the two sides'
            # waves coalesce across games into shared engine calls — and,
            # with the evaluation cache armed, game N's positions hit on
            # game N-2's rows (games alternate colors with period 2, and
            # noise-free argmax play makes repeats exact).  Outcomes cannot
            # depend on the interleaving: with add_noise=False and
            # temperature ~ 0 each move is an argmax over visit counts, so
            # the per-game RNG draw is outcome-invariant.
            max_moves = (cfg.max_moves if cfg.max_moves is not None
                         else 2 * cfg.board_size * cfg.board_size)
            drivers = [
                EvalMatchDriver(
                    candidate_worker if game % 2 == 0 else current_worker,
                    current_worker if game % 2 == 0 else candidate_worker,
                    candidate_is_black=game % 2 == 0,
                    max_moves=max_moves,
                    rng=np.random.default_rng(cfg.seed + 13),
                    name=f"evaluation_game_{game}")
                for game in range(cfg.evaluation_games)
            ]
            if eval_service is not None and drivers:
                PoolScheduler(drivers, eval_service,
                              flush_policy=cfg.flush_policy,
                              flush_timeout_us=cfg.flush_timeout_us).run()
            else:
                # No shared service to block on: drivers never suspend, so
                # stepping each to completion is the full schedule.
                for driver in drivers:
                    while driver.step():
                        pass
            wins = sum(1 for driver in drivers if driver.candidate_won)

        trace = profiler.finalize() if profiler is not None else None
        eval_stats = eval_service.stats if eval_service is not None else None
        return wins, trace, system.clock.now_us, eval_stats


class EvalMatchDriver(StepwiseDriver):
    """One candidate-evaluation game as a resumable state machine.

    The stepwise analogue of the old synchronous ``_play_match`` loop: one
    :meth:`step` starts a move (charging the tree-traversal work and
    submitting the first evaluation wave) or resumes after a served wave,
    with the side to move picked from ``position.to_play`` each move.  Under
    a :class:`~repro.rollout.scheduler.PoolScheduler` every game of the
    evaluation round advances on the shared ``evaluate_candidate_model``
    timeline, so same-model waves from different games batch into one engine
    call and the service's evaluation cache hits across games.

    Unlike :class:`~repro.minigo.selfplay.GameDriver`, profiler annotations
    never stay open across a suspension: concurrent games share one
    profiler, whose operation stack requires strict nesting — tree-search
    work is annotated synchronously and the batch wait is charged by the
    service outside any operation.
    """

    def __init__(self, black_worker: SelfPlayWorker, white_worker: SelfPlayWorker, *,
                 candidate_is_black: bool, max_moves: int,
                 rng: np.random.Generator, name: str) -> None:
        self.black_worker = black_worker
        self.white_worker = white_worker
        self.candidate_is_black = candidate_is_black
        self.max_moves = max_moves
        self.rng = rng
        self._name = name
        self._position = GoPosition.initial(black_worker.board_size)
        self._move_number = 0
        self._finished = False
        self._winner_is_black: Optional[bool] = None
        # Per-move state (held across suspensions).
        self._worker: Optional[SelfPlayWorker] = None
        self._mcts: Optional[MCTS] = None
        self._search: Optional[SearchCursor] = None
        self._request: Optional[LeafEvalRequest] = None
        self._ticket: Optional[InferenceTicket] = None

    # ------------------------------------------------------------- scheduling
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def blocked(self) -> bool:
        return self._ticket is not None and not self._ticket.done

    @property
    def now_us(self) -> float:
        return self.black_worker.system.clock.now_us

    @property
    def worker_name(self) -> str:
        return self._name

    @property
    def candidate_won(self) -> bool:
        if self._winner_is_black is None:
            raise RuntimeError(f"evaluation game {self._name!r} has not finished")
        return self._winner_is_black == self.candidate_is_black

    def step(self) -> bool:
        if self._finished:
            return False
        if self.blocked:
            raise RuntimeError(f"stepped evaluation driver {self._name!r} "
                               "while it is blocked on inference")
        with use_engine(self.black_worker.engine):
            if self._ticket is not None:
                self._resume_wave()
            else:
                self._begin_move()
        return not self._finished

    # ------------------------------------------------------------ transitions
    def _begin_move(self) -> None:
        if self._position.is_over or self._move_number >= self.max_moves:
            self._finish_game()
            return
        worker = self.black_worker if self._position.to_play == 1 else self.white_worker
        self._worker = worker
        profiler = worker.profiler
        op = (profiler.operation(OP_TREE_SEARCH) if profiler is not None
              else _NULL_OPERATION)
        with op:
            worker.system.cpu_work(TREE_SEARCH_UNITS_PER_SIM * worker.num_simulations)
        self._mcts = MCTS(worker._profiled_evaluator,
                          num_simulations=worker.num_simulations,
                          leaf_batch=worker.leaf_batch, rng=self.rng,
                          transposition=worker.transposition,
                          emit_state_keys=worker.emit_state_keys)
        self._search = SearchCursor(self._mcts, self._position, add_noise=False)
        self._advance_search()

    def _advance_search(self) -> None:
        worker = self._worker
        search = self._search
        while True:
            request = search.request
            if request is None:
                self._commit_move(search.root)
                return
            if worker._client is None:
                # Private compiled evaluator: resolve the wave in place.
                priors, values = worker._profiled_evaluator(request.features)
                request.fulfill(priors, values)
                search.advance()
                continue
            # Shared service: queue the wave and suspend until served.
            self._request = request
            metadata = {"rows": request.num_rows, "leaf_batch": worker.leaf_batch}
            if request.state_keys is not None:
                metadata["state_keys"] = request.state_keys
            self._ticket = worker._client.submit(request.features, metadata=metadata)
            return

    def _resume_wave(self) -> None:
        ticket, self._ticket = self._ticket, None
        request, self._request = self._request, None
        priors, values = ticket.result()
        request.fulfill(priors, values)
        self._search.advance()
        self._advance_search()

    def _commit_move(self, root) -> None:
        move = self._mcts.choose_move(root, temperature=1e-6)
        self._position = self._position.play(move)
        self._move_number += 1
        self._worker = None
        self._mcts = None
        self._search = None
        if self._position.is_over or self._move_number >= self.max_moves:
            self._finish_game()

    def _finish_game(self) -> None:
        position = self._position
        if position.is_over:
            self._winner_is_black = position.result() > 0
        else:
            self._winner_is_black = position.board.area_score() > 0
        self._finished = True
