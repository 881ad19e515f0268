"""Minigo self-play: policy/value network and self-play game generation.

One self-play worker repeatedly runs MCTS from the current position
(``mcts_tree_search``, Python time), evaluating leaf positions with the
policy/value network (``expand_leaf``, ML-backend + GPU time), exactly the
annotation structure of Figure 2 in the paper.

Game play is a resumable state machine: :class:`GameDriver` advances one
worker's games step by step (one step = one MCTS wave or one move commit).
A worker with a private evaluator resolves every wave in place, so
:meth:`SelfPlayWorker.play_games` simply drives it to completion; a worker
on the shared inference service *suspends* at each inference boundary, and
the :class:`~repro.rollout.scheduler.PoolScheduler` interleaves many
workers' drivers on a shared virtual timeline so one batched engine call
can serve leaves from all of them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..backend import functional as F
from ..backend.context import use_engine
from ..backend.engine import BackendEngine
from ..backend.layers import MLP, Module
from ..backend.tensor import Parameter, Tensor
from ..profiler.api import Profiler
from ..rollout.driver import StepwiseDriver
from ..sim.go import GoPosition
from ..system import System
from ..rollout.inference import InferenceClient, InferenceService, InferenceTicket
from .mcts import MCTS, LeafEvalRequest, SearchCursor

OP_TREE_SEARCH = "mcts_tree_search"
OP_EXPAND_LEAF = "expand_leaf"

#: Python units charged per MCTS node traversal (tree-walking work in Python).
TREE_SEARCH_UNITS_PER_SIM = 1500.0

#: Moves sampled at temperature 1 from the visit counts; later moves are
#: played near-greedily (temperature 1e-6).
TEMPERATURE_MOVES = 8

#: Shared no-op context for unprofiled runs: ``nullcontext`` is stateless and
#: re-entrant, so one module-level instance replaces a per-move allocation.
_NULL_OPERATION = nullcontext()


class PolicyValueNet(Module):
    """Small AlphaGoZero-style network: shared trunk, policy head, value head."""

    def __init__(self, board_size: int, hidden: Tuple[int, ...] = (128, 128), *,
                 rng: Optional[np.random.Generator] = None, name: str = "pv_net") -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        feature_dim = 3 * board_size * board_size
        num_moves = board_size * board_size + 1
        self.board_size = board_size
        self.num_moves = num_moves
        self.trunk = MLP(feature_dim, list(hidden[:-1]), hidden[-1], activation="relu",
                         out_activation="relu", name=f"{name}/trunk", rng=rng)
        self.policy_head = MLP(hidden[-1], [], num_moves, name=f"{name}/policy", rng=rng)
        self.value_head = MLP(hidden[-1], [], 1, out_activation="tanh", name=f"{name}/value", rng=rng)

    def __call__(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        trunk = self.trunk(features)
        policy_logits = self.policy_head(trunk)
        value = self.value_head(trunk)
        return policy_logits, value

    def parameters(self) -> List[Parameter]:
        return self.trunk.parameters() + self.policy_head.parameters() + self.value_head.parameters()


@dataclass
class SelfPlayExample:
    """One training example: position features, MCTS visit distribution, game outcome."""

    features: np.ndarray
    policy_target: np.ndarray
    value_target: float


@dataclass
class SelfPlayResult:
    """Result of one worker's self-play session."""

    worker: str
    games: int
    moves: int
    examples: List[SelfPlayExample] = field(default_factory=list)
    black_wins: int = 0


class SelfPlayWorker:
    """One self-play process: its own system/engine, sharing the GPU device."""

    def __init__(
        self,
        system: System,
        engine: BackendEngine,
        network: Optional[PolicyValueNet],
        *,
        profiler: Optional[Profiler] = None,
        board_size: int = 9,
        num_simulations: int = 16,
        max_moves: Optional[int] = None,
        seed: int = 0,
        leaf_batch: int = 1,
        inference: Optional[InferenceService] = None,
        inference_client: Optional[InferenceClient] = None,
        transposition: bool = False,
        emit_state_keys: bool = False,
    ) -> None:
        """With ``inference`` set, leaf evaluation goes through the shared
        batched :class:`~repro.rollout.inference.InferenceService` (one model
        replica for every worker) instead of a private compiled evaluator;
        ``leaf_batch`` controls how many in-flight leaves each MCTS wave
        collects per batched call (1 reproduces the legacy per-leaf search
        decision-for-decision).  ``inference_client`` supplies a pre-built
        client handle (candidate evaluation connects each side with its own
        network); by default the worker connects itself.

        ``transposition`` turns on the per-search MCTS transposition table;
        ``emit_state_keys`` attaches Zobrist position keys to every wave
        submission so a cache-enabled service can dedupe and cache rows
        across workers and games (both default off — the bit-for-bit
        baseline)."""
        if leaf_batch <= 0:
            raise ValueError("leaf_batch must be positive")
        if inference_client is not None and inference is None:
            raise ValueError("inference_client requires the inference service it belongs to")
        self.system = system
        self.engine = engine
        self.profiler = profiler
        self.board_size = board_size
        self.num_simulations = num_simulations
        self.max_moves = max_moves if max_moves is not None else 2 * board_size * board_size
        self.leaf_batch = leaf_batch
        self.transposition = transposition
        self.emit_state_keys = emit_state_keys
        self.rng = np.random.default_rng(seed)
        self.inference = inference
        self._client: Optional[InferenceClient] = None
        self._evaluate_compiled = None
        if inference is not None:
            self._client = inference_client if inference_client is not None else \
                inference.connect(system, engine, worker=system.worker)
            self.network = network if network is not None else self._client.network
        else:
            if network is None:
                raise ValueError("network is required when no inference service is given")
            self.network = network
            self._evaluate_compiled = engine.function(self._evaluate, name="expand_leaf", num_feeds=1)

    # -------------------------------------------------------------- evaluation
    def _evaluate(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        logits, value = self.network(Tensor(features))
        priors = F.softmax(logits)
        return priors.numpy(), value.numpy().reshape(-1)

    def _profiled_evaluator(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Private-evaluator leaf evaluation scoped to the ``expand_leaf`` operation."""
        if self.profiler is not None:
            with self.profiler.operation(OP_EXPAND_LEAF):
                return self._evaluate_compiled(features)
        return self._evaluate_compiled(features)

    # ----------------------------------------------------------------- play
    def play_games(self, num_games: int) -> SelfPlayResult:
        """Play ``num_games`` games of self-play, collecting training examples.

        Synchronous driver of the stepwise :class:`GameDriver` for a worker
        with a private evaluator.  A service-backed worker blocks at its
        first inference boundary and must run under a
        :class:`~repro.rollout.scheduler.PoolScheduler`; stepping it here
        again raises the driver's "blocked on inference" ``RuntimeError``.
        """
        driver = GameDriver(self, num_games)
        with use_engine(self.engine):
            while not driver.finished:
                driver.step()
        return driver.result


class GameDriver(StepwiseDriver):
    """Stepwise self-play: one worker's games as a resumable state machine.

    One :meth:`step` performs one schedulable unit of work: starting a move
    (charging the Python-side tree-traversal work and submitting the first
    evaluation wave), resuming after a fulfilled wave (submitting the next
    wave), or committing a move once its search completes.  At an inference
    boundary the driver *suspends*: its ``mcts_tree_search`` and
    ``expand_leaf`` profiler annotations stay open across the wait, so both
    the queueing delay and the batch time the worker is later charged land
    inside this worker's own operation events.  The driver becomes runnable
    again once its ticket is served.

    Without an inference service the driver evaluates waves in place (the
    per-worker compiled evaluator); with one, :meth:`step` leaves a ticket
    pending and the :class:`~repro.rollout.scheduler.PoolScheduler` decides
    when the service serves it.
    """

    def __init__(self, worker: SelfPlayWorker, num_games: int) -> None:
        self.worker = worker
        self.num_games = num_games
        self.result = SelfPlayResult(worker=worker.system.worker, games=num_games, moves=0)
        self.steps = 0
        self._games_done = 0
        self._finished = num_games <= 0
        # Per-game state.
        self._mcts: Optional[MCTS] = None
        self._position: Optional[GoPosition] = None
        self._game_examples: List[Tuple[np.ndarray, np.ndarray, int]] = []
        self._move_number = 0
        # Per-move state (held open across suspensions).
        self._search: Optional[SearchCursor] = None
        self._request: Optional[LeafEvalRequest] = None
        self._ticket: Optional[InferenceTicket] = None
        self._search_op = None
        self._leaf_op = None
        if worker.profiler is not None:
            worker.profiler.set_phase("selfplay")

    # ------------------------------------------------------------- scheduling
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def blocked(self) -> bool:
        """Suspended at an inference boundary, ticket not yet served."""
        return self._ticket is not None and not self._ticket.done

    @property
    def runnable(self) -> bool:
        return not self._finished and not self.blocked

    @property
    def now_us(self) -> float:
        """The worker's virtual clock (the scheduler's priority key)."""
        return self.worker.system.clock.now_us

    @property
    def worker_name(self) -> str:
        return self.worker.system.worker

    def step(self) -> bool:
        """Advance by one unit of work; returns False once all games finished."""
        if self._finished:
            return False
        if self.blocked:
            raise RuntimeError(f"stepped driver of {self.worker.system.worker!r} "
                               "while it is blocked on inference")
        self.steps += 1
        with use_engine(self.worker.engine):
            if self._ticket is not None:
                self._resume_wave()
            else:
                self._begin()
        return not self._finished

    # ------------------------------------------------------------ transitions
    def _begin(self) -> None:
        """Start the next move, rolling game boundaries as needed."""
        if self._position is None:
            self._start_game()
        while self._position.is_over or self._move_number >= self.worker.max_moves:
            self._finish_game()
            if self._finished:
                return
            self._start_game()
        self._begin_move()

    def _start_game(self) -> None:
        worker = self.worker
        self._mcts = MCTS(worker._profiled_evaluator, num_simulations=worker.num_simulations,
                          leaf_batch=worker.leaf_batch, rng=worker.rng,
                          transposition=worker.transposition,
                          emit_state_keys=worker.emit_state_keys)
        self._position = GoPosition.initial(worker.board_size)
        self._game_examples = []
        self._move_number = 0

    def _begin_move(self) -> None:
        worker = self.worker
        if worker.profiler is not None:
            self._search_op = worker.profiler.operation(OP_TREE_SEARCH)
        else:
            self._search_op = _NULL_OPERATION
        self._search_op.__enter__()
        # Python-side tree traversal work.
        worker.system.cpu_work(TREE_SEARCH_UNITS_PER_SIM * worker.num_simulations)
        self._search = SearchCursor(self._mcts, self._position, add_noise=True)
        self._advance_search()

    def _advance_search(self) -> None:
        """Run the search cursor until it suspends or the move completes."""
        worker = self.worker
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
            # Shared service: open the expand_leaf annotation, queue the
            # wave, and suspend until the scheduler serves it.
            self._request = request
            metadata = None
            if worker.profiler is not None:
                metadata = {"rows": request.num_rows, "leaf_batch": worker.leaf_batch}
                self._leaf_op = worker.profiler.operation(OP_EXPAND_LEAF, metadata=metadata)
                self._leaf_op.__enter__()
            if request.state_keys is not None:
                # Cacheable wave: the service reads the per-row keys out of
                # the metadata channel at submit (the profiler annotation,
                # if any, shares the same dict — attribution is unchanged).
                metadata = metadata if metadata is not None else {}
                metadata["state_keys"] = request.state_keys
            self._ticket = worker._client.submit(request.features, metadata=metadata)
            return

    def _resume_wave(self) -> None:
        """Continue after the pending ticket was served."""
        ticket, self._ticket = self._ticket, None
        if self._leaf_op is not None:
            self._leaf_op.__exit__(None, None, None)
            self._leaf_op = None
        request, self._request = self._request, None
        priors, values = ticket.result()
        request.fulfill(priors, values)
        self._search.advance()
        self._advance_search()

    def _commit_move(self, root) -> None:
        worker = self.worker
        temperature = 1.0 if self._move_number < TEMPERATURE_MOVES else 1e-6
        # policy_from_visits returns a normalised distribution (it guards
        # the all-zero and underflow cases itself).
        policy = self._mcts.policy_from_visits(root, temperature=temperature)
        move_index = int(worker.rng.choice(len(policy), p=policy))
        move = self._position.index_to_move(move_index)
        self._search_op.__exit__(None, None, None)
        self._search_op = None
        self._search = None
        self._mcts.release(root)
        self._game_examples.append((self._position.features(), policy.astype(np.float32),
                                    self._position.to_play))
        self._position = self._position.play(move)
        self._move_number += 1
        self.result.moves += 1

    def _finish_game(self) -> None:
        position = self._position
        outcome = position.result() if position.is_over else float(np.sign(position.board.area_score()) or 1.0)
        if outcome > 0:
            self.result.black_wins += 1
        for features, policy, to_play in self._game_examples:
            value_target = outcome if to_play == 1 else -outcome
            self.result.examples.append(SelfPlayExample(features=features, policy_target=policy,
                                                        value_target=float(value_target)))
        self._games_done += 1
        self._mcts = None
        self._position = None
        self._game_examples = []
        if self._games_done >= self.num_games:
            self._finished = True
