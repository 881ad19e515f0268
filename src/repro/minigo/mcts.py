"""Monte-Carlo tree search guided by a policy/value network (AlphaGoZero-style).

Minigo's self-play workers expand a move tree in Python
(``mcts_tree_search`` in the paper's Figure 2) and evaluate leaf positions in
minibatches with neural-network inference (``expand_leaf``).  The search here
follows the PUCT formulation of AlphaGoZero: child selection by
``Q + U`` where ``U`` is proportional to the network prior and the parent
visit count.

The tree stores each expanded node's children **as arrays** (priors, visit
counts, values, virtual losses; one slot per move index), as Minigo's own
``mcts.py`` does: expansion is a handful of array ops instead of one Python
object per legal move, and selection is one vectorized PUCT evaluation plus
an ``argmax`` per tree level.  A child object exists only once a simulation
selects it.  Expansion also stores ``c_puct * prior`` (``-inf`` where
illegal), so a PUCT evaluation is eight 82-element array ops and no select.

With ``leaf_batch > 1`` the search runs in *waves*: up to ``leaf_batch``
leaves are selected per wave under a virtual loss (each in-flight leaf is
temporarily scored as a loss along its path, steering later selections away
from it), then evaluated in one batched network call and backed up together.
A wave is also expanded as one block: one unpack of the leaves' feature
planes builds the request, one unpack of their legality bitboards and one
set of (k, moves) array ops expand every evaluated leaf, and each leaf keeps
row views into the wave's blocks — bit-identical to expanding leaf by leaf.
A wave of one leaf applies and removes its virtual loss before any other
selection happens, so ``leaf_batch=1`` reproduces the classic per-leaf search
decision-for-decision.

The search is resumable: :meth:`MCTS.search_steps` is a generator that
*yields* a :class:`LeafEvalRequest` at every inference boundary instead of
calling the evaluator synchronously, so an external scheduler can suspend a
worker mid-search, batch its pending leaves with other workers' requests, and
resume it once results land.  :meth:`MCTS.search` is the synchronous driver
of that generator and behaves exactly as before.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sim.go import GoPosition, Move, legal_masks, stacked_features

#: Evaluates a batch of positions -> (policy priors [N, num_moves], values [N]).
NetworkEvaluator = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

#: One selected leaf of a wave: (node, terminal value or None if it needs
#: network evaluation).
WaveEntry = Tuple["MCTSNode", Optional[float]]


class LeafEvalRequest:
    """One pending leaf-evaluation ticket yielded by :meth:`MCTS.search_steps`.

    The generator suspends after yielding a request; the driver evaluates
    ``features`` however it likes (synchronously, or queued on a shared
    inference service) and calls :meth:`fulfill` before resuming the search.
    """

    __slots__ = ("features", "state_keys", "priors", "values")

    def __init__(self, features: np.ndarray,
                 state_keys: Optional[List[int]] = None) -> None:
        self.features = features
        #: per-row position keys (Zobrist transposition keys), attached when
        #: the search emits them for the service-side evaluation cache
        self.state_keys = state_keys
        self.priors: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def done(self) -> bool:
        return self.priors is not None

    def fulfill(self, priors: np.ndarray, values: np.ndarray) -> None:
        self.priors = priors
        self.values = values

    def results(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.done:
            raise RuntimeError("leaf evaluation request resumed before being fulfilled")
        assert self.priors is not None and self.values is not None
        return self.priors, self.values


class MCTSNode:
    """One node of the search tree, holding its children as arrays.

    An expanded node stores five arrays with one slot per move index
    (row-major points, then pass): :attr:`child_prior`, :attr:`child_U`
    (``c_puct * child_prior``, ``-inf`` at illegal moves), :attr:`child_N`
    (visits), :attr:`child_W` (total value, from each child's own to-play
    perspective) and :attr:`child_VL` (in-flight virtual losses), plus the
    position's shared legality mask :attr:`legal`.  :attr:`children` holds
    only the children some simulation has *selected*; a node reads its own
    statistics from its parent's arrays at :attr:`index`, and only the root
    keeps them as scalars.

    A child's :attr:`position` is derived as ``parent.position.play(move)``
    the first time it is read.
    """

    __slots__ = ("_position", "parent", "index", "children", "legal",
                 "child_prior", "child_U", "child_N", "child_W", "child_VL",
                 "_root_N", "_root_W", "_root_VL")

    def __init__(self, position: Optional[GoPosition] = None,
                 parent: Optional["MCTSNode"] = None, index: int = -1) -> None:
        if position is None and parent is None:
            raise ValueError("a node needs a position or a parent to derive one from")
        self._position = position
        self.parent = parent
        self.index = index  #: this node's slot in the parent's child arrays
        self.children: Dict[int, MCTSNode] = {}
        self.legal: Optional[np.ndarray] = None
        self.child_prior: Optional[np.ndarray] = None
        self.child_U: Optional[np.ndarray] = None
        self.child_N: Optional[np.ndarray] = None
        self.child_W: Optional[np.ndarray] = None
        self.child_VL: Optional[np.ndarray] = None
        self._root_N = 0
        self._root_W = 0.0
        self._root_VL = 0

    @property
    def position(self) -> GoPosition:
        position = self._position
        if position is None:
            parent_position = self.parent.position
            position = parent_position.play(parent_position.index_to_move(self.index))
            self._position = position
        return position

    @property
    def visit_count(self) -> int:
        parent = self.parent
        return self._root_N if parent is None else int(parent.child_N[self.index])

    @property
    def total_value(self) -> float:
        parent = self.parent
        return self._root_W if parent is None else float(parent.child_W[self.index])

    @property
    def virtual_loss(self) -> int:
        parent = self.parent
        return self._root_VL if parent is None else int(parent.child_VL[self.index])

    @property
    def mean_value(self) -> float:
        visits = self.visit_count
        return self.total_value / visits if visits > 0 else 0.0

    def puct_scores(self) -> np.ndarray:
        """PUCT score of every move from this (expanded) node; illegal moves -inf.

        ``(-W - VL) / visits + c_puct * prior * sqrt(parent visits) / (1 +
        visits)``, the mean 0 while unvisited.  ``child_W`` is from each
        child's own to-play perspective (backup flips sign per ply), so the
        parent negates it; in-flight virtual losses count as parent-perspective
        losses, steering concurrent wave selections apart.  IEEE negation,
        division and addition are sign-symmetric, so evaluating it as
        ``child_U * sqrt(...) / (1 + visits) - (W + VL) / max(visits, 1)``
        gives every legal score the same bits, and -inf stays -inf.
        """
        parent_visits = self.visit_count + self.virtual_loss
        if parent_visits == 0:  # nothing visited: every legal move scores 0
            return np.where(self.legal, 0.0, -math.inf)
        child_VL = self.child_VL
        visits = self.child_N + child_VL
        mean = self.child_W + child_VL
        mean /= np.maximum(visits, 1)
        visits += 1
        scores = self.child_U * math.sqrt(parent_visits)
        scores /= visits
        scores -= mean
        return scores


class MCTS:
    """PUCT tree search over Go positions."""

    def __init__(
        self,
        evaluator: NetworkEvaluator,
        *,
        num_simulations: int = 32,
        c_puct: float = 1.5,
        dirichlet_alpha: float = 0.3,
        exploration_fraction: float = 0.25,
        leaf_batch: int = 1,
        rng: Optional[np.random.Generator] = None,
        transposition: bool = False,
        emit_state_keys: bool = False,
    ) -> None:
        """``transposition=True`` keeps a per-search table of raw network
        outputs keyed by :meth:`GoPosition.transposition_key`, so a position
        reached again through a different move order is finished in-wave
        from the stored (priors, value) instead of joining the
        :class:`LeafEvalRequest` — selection, virtual-loss accounting and
        backup are otherwise unchanged, and ``transposition=False``
        reproduces today's searches bit for bit.  ``emit_state_keys=True``
        attaches per-row transposition keys to every request, feeding the
        service-side evaluation cache across searches and games."""
        if num_simulations <= 0:
            raise ValueError("num_simulations must be positive")
        if leaf_batch <= 0:
            raise ValueError("leaf_batch must be positive")
        self.evaluator = evaluator
        self.num_simulations = num_simulations
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.exploration_fraction = exploration_fraction
        self.leaf_batch = leaf_batch
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.transposition = transposition
        self.emit_state_keys = emit_state_keys
        #: cumulative leaves answered from transposition tables (all searches)
        self.transposition_hits = 0

    # ----------------------------------------------------------------- search
    def search(self, position: GoPosition, *, add_noise: bool = True) -> MCTSNode:
        """Run ``num_simulations`` simulations from ``position`` and return the root."""
        steps = self.search_steps(position, add_noise=add_noise)
        while True:
            try:
                request = steps.send(None)
            except StopIteration as stop:
                return stop.value
            priors, values = self.evaluator(request.features)
            request.fulfill(priors, values)

    def search_steps(self, position: GoPosition, *, add_noise: bool = True):
        """Resumable wave search: a generator yielding :class:`LeafEvalRequest`.

        Each yield is an inference boundary — the caller evaluates the
        request's features (synchronously or through a shared batched
        service), calls :meth:`LeafEvalRequest.fulfill`, and resumes the
        generator.  All RNG draws happen in the same order as :meth:`search`,
        so driving the generator with a synchronous evaluator reproduces the
        classic search decision-for-decision.  Returns the root node via
        ``StopIteration.value``.

        Thin wrapper over :class:`SearchCursor`, the explicit-state form of
        the same state machine.
        """
        cursor = SearchCursor(self, position, add_noise=add_noise)
        while cursor.request is not None:
            yield cursor.request
            cursor.advance()
        return cursor.root

    def _select_wave(self, root: MCTSNode, target: int
                     ) -> Tuple[List[WaveEntry], List[int]]:
        """Select up to ``target`` leaves under virtual loss.

        Returns ``(wave, pending)`` where ``wave`` is (leaf, terminal value or
        None) in selection order and ``pending`` the wave slots (indices into
        ``wave``) needing network evaluation.

        Each level scores every move with :meth:`MCTSNode.puct_scores` and
        takes the first maximum, which is the same child ``max()`` over the
        children in ascending move-index order would pick."""
        wave: List[WaveEntry] = []
        pending: List[int] = []
        selected: set = set()
        for _ in range(target):
            node = root
            # Selection: descend to a leaf, materializing selected children.
            while node.child_prior is not None:
                index = int(node.puct_scores().argmax())
                child = node.children.get(index)
                if child is None:
                    child = node.children[index] = MCTSNode(parent=node, index=index)
                node = child
            position = node.position
            if position.is_over:
                value = position.result()
                # result() is from Black's perspective; convert to the player to move.
                value = value if position.to_play == 1 else -value
                wave.append((node, value))
                self._add_virtual_loss(node)
                continue
            if node in selected:
                # Virtual loss could not steer the search away from an
                # already-selected leaf (tiny tree); flush what we have.
                break
            selected.add(node)
            pending.append(len(wave))
            wave.append((node, None))
            self._add_virtual_loss(node)
        return wave, pending

    def _finish_wave(self, wave: List[WaveEntry],
                     evaluated: Dict[int, Tuple[np.ndarray, float]]) -> int:
        """Expand the evaluated leaves, then revert virtual losses and back up.

        ``evaluated`` maps each pending wave slot to its (priors, value).
        All evaluated leaves are expanded in one :meth:`_expand_rows` block
        before any backup.  That is the per-leaf order's result exactly:
        expansion writes only the leaf's own new arrays, no leaf of a wave is
        another's ancestor (selection descends only through expanded nodes),
        and the ancestors' arrays are updated in selection order as before."""
        slots = [slot for slot, (_, value) in enumerate(wave) if value is None]
        if slots:
            self._expand_rows([wave[slot][0] for slot in slots],
                              np.stack([evaluated[slot][0] for slot in slots]))
        for slot, (node, value) in enumerate(wave):
            self._remove_virtual_loss(node)
            self._backup(node, evaluated[slot][1] if value is None else value)
        return len(wave)

    @staticmethod
    def _add_virtual_loss(node: MCTSNode) -> None:
        parent = node.parent
        while parent is not None:
            parent.child_VL[node.index] += 1
            node, parent = parent, parent.parent
        node._root_VL += 1

    @staticmethod
    def _remove_virtual_loss(node: MCTSNode) -> None:
        parent = node.parent
        while parent is not None:
            parent.child_VL[node.index] -= 1
            node, parent = parent, parent.parent
        node._root_VL -= 1

    def _expand_with_priors(self, node: MCTSNode, priors: np.ndarray, *, add_noise: bool) -> None:
        """Store one node's child arrays from an already-computed prior row:
        the one-row :meth:`_expand_rows`, plus root Dirichlet noise."""
        self._expand_rows([node], priors[None, :])
        if add_noise:
            legal = node.legal
            num_legal = int(np.count_nonzero(legal))
            if num_legal > 1:
                masked = node.child_prior
                noise = self.rng.dirichlet([self.dirichlet_alpha] * num_legal)
                masked[legal] = (
                    (1 - self.exploration_fraction) * masked[legal]
                    + self.exploration_fraction * noise
                )
                node.child_U = np.where(legal, self.c_puct * masked, -math.inf)

    def _expand_rows(self, nodes: List[MCTSNode], priors: np.ndarray) -> None:
        """Store the child arrays of ``nodes`` from their (k, moves) prior rows.

        Every array op runs once on the whole block, and each node keeps row
        views into one block each of priors, ``child_U``, N, W and VL.  Row
        ``i`` is bit-identical to expanding node ``i`` on its own: every op
        is elementwise but the row sum, which runs NumPy's pairwise loop on
        each contiguous row as a 1-D ``sum()`` does.  No child object and no
        child board is built here: a child exists only once selection picks
        it (see :class:`MCTSNode`).
        """
        legal = legal_masks([node.position for node in nodes])
        masked = np.maximum(priors, 1e-8)
        masked *= legal
        masked /= masked.sum(axis=1, keepdims=True)
        child_U = np.where(legal, self.c_puct * masked, -math.inf)
        child_N = np.zeros(masked.shape, dtype=np.int64)
        child_W = np.zeros(masked.shape, dtype=np.float64)
        child_VL = np.zeros(masked.shape, dtype=np.int64)
        for node, legal_row, prior, U, N, W, VL in zip(
                nodes, legal, masked, child_U, child_N, child_W, child_VL):
            node.legal = legal_row
            node.child_prior = prior
            node.child_U = U
            node.child_N = N
            node.child_W = W
            node.child_VL = VL

    @staticmethod
    def _backup(node: MCTSNode, value: float) -> None:
        """Propagate the leaf value up the tree, flipping sign per ply."""
        sign = 1.0
        parent = node.parent
        while parent is not None:
            index = node.index
            parent.child_N[index] += 1
            parent.child_W[index] += sign * value
            sign = -sign
            node, parent = parent, parent.parent
        node._root_N += 1
        node._root_W += sign * value

    # ------------------------------------------------------------- move choice
    def policy_from_visits(self, root: MCTSNode, *, temperature: float = 1.0) -> np.ndarray:
        """Normalised visit-count distribution over all moves (including pass)."""
        if root.child_N is None:
            size = root.position.size
            policy = np.zeros(size * size + 1, dtype=np.float64)
        else:
            policy = root.child_N.astype(np.float64)
        if policy.sum() == 0:
            policy[-1] = 1.0
            return policy
        if temperature <= 1e-6:
            best = int(np.argmax(policy))
            one_hot = np.zeros_like(policy)
            one_hot[best] = 1.0
            return one_hot
        sharpened = policy ** (1.0 / temperature)
        total = sharpened.sum()
        if total == 0 or not np.isfinite(total):
            # Sharpening under/overflowed (very low temperature on a lopsided
            # visit distribution); fall back to the argmax one-hot.
            one_hot = np.zeros_like(policy)
            one_hot[int(np.argmax(policy))] = 1.0
            return one_hot
        return sharpened / total

    def choose_move(self, root: MCTSNode, *, temperature: float = 1.0) -> Move:
        policy = self.policy_from_visits(root, temperature=temperature)
        index = int(self.rng.choice(len(policy), p=policy))
        return root.position.index_to_move(index)

    @staticmethod
    def release(root: MCTSNode) -> None:
        """Drop a used search tree's child links, so reference counting frees
        it at once instead of the (much later) cycle collector."""
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            node.children = {}


class SearchCursor:
    """Explicit-state resumable search: the state machine behind ``search_steps``.

    Holds the suspended search between inference boundaries as plain data
    (root tree, outstanding wave, pending request) instead of a live
    generator frame.  :meth:`advance` consumes the fulfilled :attr:`request`
    and runs until the next boundary; RNG draws and tree decisions happen in
    exactly the order the generator produced them (``search_steps`` is a thin
    wrapper over this class).  In-wave results are keyed by wave slot.
    """

    __slots__ = ("mcts", "root", "add_noise", "remaining", "wave", "pending",
                 "request", "_at_root", "table", "table_hits", "_pending_hits")

    def __init__(self, mcts: MCTS, position: GoPosition, *, add_noise: bool = True) -> None:
        self.mcts = mcts
        self.root = MCTSNode(position=position)
        self.add_noise = add_noise
        self.remaining = mcts.num_simulations
        self.wave: Optional[List[WaveEntry]] = None
        #: wave slots of the leaves in the outstanding request, in row order
        self.pending: Optional[List[int]] = None
        #: per-search transposition table: Zobrist key -> raw (priors64, value)
        self.table: Optional[Dict[int, Tuple[np.ndarray, float]]] = (
            {} if mcts.transposition else None)
        self.table_hits = 0
        #: wave slot -> table entry for the current wave's hit leaves, merged
        #: into the evaluated results when the outstanding request is fulfilled
        self._pending_hits: Optional[Dict[int, Tuple[np.ndarray, float]]] = None
        #: The outstanding inference boundary; None once the search completed.
        self.request: Optional[LeafEvalRequest] = LeafEvalRequest(
            position.features()[None, :],
            [position.transposition_key()] if mcts.emit_state_keys else None)
        self._at_root = True

    @property
    def done(self) -> bool:
        return self.request is None

    def advance(self) -> Optional[LeafEvalRequest]:
        """Consume the fulfilled request; run to the next boundary (or done)."""
        mcts = self.mcts
        priors, values = self.request.results()
        if self._at_root:
            self._at_root = False
            root_priors = np.asarray(priors[0], dtype=np.float64)
            if self.table is not None:
                self.table[self.root.position.transposition_key()] = (
                    root_priors, float(values[0]))
            mcts._expand_with_priors(self.root, root_priors,
                                     add_noise=self.add_noise)
        else:
            # One dtype conversion per wave; per-leaf rows are views into
            # it, bit-identical to converting each row on its own.
            priors64 = np.asarray(priors, dtype=np.float64)
            evaluated = {slot: (priors64[i], float(values[i]))
                         for i, slot in enumerate(self.pending)}
            if self.table is not None:
                wave = self.wave
                for slot in self.pending:
                    self.table[wave[slot][0].position.transposition_key()] = evaluated[slot]
                if self._pending_hits:
                    evaluated.update(self._pending_hits)
            self.remaining -= mcts._finish_wave(self.wave, evaluated)
        self.request = None
        self.wave = None
        self.pending = None
        self._pending_hits = None
        while self.remaining > 0:
            wave, pending = mcts._select_wave(self.root, min(mcts.leaf_batch, self.remaining))
            hits: Optional[Dict[int, Tuple[np.ndarray, float]]] = None
            if self.table is not None and pending:
                # Transposition pass: leaves whose position was already
                # evaluated this search (through any move order) are finished
                # in-wave from the stored raw outputs; only the misses join
                # the network request.
                hits = {}
                misses: List[int] = []
                for slot in pending:
                    entry = self.table.get(wave[slot][0].position.transposition_key())
                    if entry is not None:
                        hits[slot] = entry
                    else:
                        misses.append(slot)
                if hits:
                    self.table_hits += len(hits)
                    mcts.transposition_hits += len(hits)
                pending = misses
            if pending:
                self.wave = wave
                self.pending = pending
                self._pending_hits = hits or None
                leaves = [wave[slot][0].position for slot in pending]
                self.request = LeafEvalRequest(
                    stacked_features(leaves),
                    [position.transposition_key() for position in leaves]
                    if mcts.emit_state_keys else None)
                return self.request
            self.remaining -= mcts._finish_wave(wave, hits or {})
        return None
