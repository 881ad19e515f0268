"""The scalar MCTS: one Python object per child, selection by ``max(key=...)``.

This is the search layer as it was before :mod:`repro.minigo.mcts` moved a
node's children into arrays: expansion builds an :class:`ScalarNode` for
every legal move, and selection scores each child with
:meth:`ScalarNode.ucb_score`.  It drives the same :class:`SearchCursor` state
machine (waves, transposition table, pickling) through the same hooks, so a
:class:`ScalarMCTS` search and an :class:`~repro.minigo.mcts.MCTS` search from
the same seed must agree bit for bit: visit counts, policies, RNG draws.

Use :class:`ScalarMCTS` wherever ``MCTS`` is constructed and
:class:`ScalarSearchCursor` wherever ``SearchCursor`` is.  Its
``_expand_rows`` expands a wave's leaves one at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.minigo.mcts import MCTS, SearchCursor
from repro.sim.go import GoPosition, Move


class ScalarNode:
    """One node of the search tree, with a Python object per child.

    Child positions are materialized lazily: expansion records only the
    (parent, move, prior) triple, and :attr:`position` replays the move on
    the parent's board the first time it is read.
    """

    __slots__ = ("_position", "parent", "move", "prior", "visit_count",
                 "total_value", "children", "is_expanded", "virtual_loss")

    def __init__(
        self,
        position: Optional[GoPosition] = None,
        parent: Optional["ScalarNode"] = None,
        move: Move = None,
        prior: float = 0.0,
    ) -> None:
        self._position = position
        self.parent = parent
        self.move = move
        self.prior = prior
        self.visit_count = 0
        self.total_value = 0.0
        self.children: Dict[int, ScalarNode] = {}
        self.is_expanded = False
        self.virtual_loss = 0

    @property
    def position(self) -> GoPosition:
        position = self._position
        if position is None:
            position = self.parent.position.play(self.move)
            self._position = position
        return position

    @property
    def mean_value(self) -> float:
        return self.total_value / self.visit_count if self.visit_count > 0 else 0.0

    def ucb_score(self, c_puct: float) -> float:
        if self.parent is None:
            return self.mean_value
        visits = self.visit_count + self.virtual_loss
        mean = (-self.total_value - self.virtual_loss) / visits if visits > 0 else 0.0
        parent_visits = self.parent.visit_count + self.parent.virtual_loss
        exploration = c_puct * self.prior * math.sqrt(parent_visits) / (1 + visits)
        return mean + exploration


class ScalarMCTS(MCTS):
    """:class:`MCTS` with the scalar node layout and per-child selection."""

    def _select_wave(self, root: ScalarNode, target: int
                     ) -> Tuple[List[Tuple[ScalarNode, Optional[float]]], List[int]]:
        wave: List[Tuple[ScalarNode, Optional[float]]] = []
        pending: List[int] = []
        pending_ids: set = set()
        c_puct = self.c_puct

        def ucb_key(child: ScalarNode) -> float:
            return child.ucb_score(c_puct)

        for _ in range(target):
            node = root
            while node.is_expanded and node.children:
                node = max(node.children.values(), key=ucb_key)
            if node.position.is_over:
                value = node.position.result()
                value = value if node.position.to_play == 1 else -value
                wave.append((node, value))
                self._add_virtual_loss(node)
                continue
            if id(node) in pending_ids:
                break
            pending_ids.add(id(node))
            pending.append(len(wave))
            wave.append((node, None))
            self._add_virtual_loss(node)
        return wave, pending

    @staticmethod
    def _add_virtual_loss(node: ScalarNode) -> None:
        current: Optional[ScalarNode] = node
        while current is not None:
            current.virtual_loss += 1
            current = current.parent

    @staticmethod
    def _remove_virtual_loss(node: ScalarNode) -> None:
        current: Optional[ScalarNode] = node
        while current is not None:
            current.virtual_loss -= 1
            current = current.parent

    def _expand_with_priors(self, node: ScalarNode, priors: np.ndarray, *,
                            add_noise: bool) -> None:
        position = node.position
        legal = position.legal_moves()
        move_to_index = position.move_to_index
        legal_indices = [move_to_index(move) for move in legal]
        masked = np.zeros_like(priors)
        masked[legal_indices] = np.maximum(priors[legal_indices], 1e-8)
        masked /= masked.sum()

        if add_noise and len(legal_indices) > 1:
            noise = self.rng.dirichlet([self.dirichlet_alpha] * len(legal_indices))
            masked[legal_indices] = (
                (1 - self.exploration_fraction) * masked[legal_indices]
                + self.exploration_fraction * noise
            )

        children = node.children
        for move, index in zip(legal, legal_indices):
            children[index] = ScalarNode(parent=node, move=move,
                                         prior=float(masked[index]))
        node.is_expanded = True

    def _expand_rows(self, nodes: List[ScalarNode], priors: np.ndarray) -> None:
        for node, row in zip(nodes, priors):
            self._expand_with_priors(node, row, add_noise=False)

    @staticmethod
    def _backup(node: ScalarNode, value: float) -> None:
        current: Optional[ScalarNode] = node
        sign = 1.0
        while current is not None:
            current.visit_count += 1
            current.total_value += sign * value
            sign = -sign
            current = current.parent

    def policy_from_visits(self, root: ScalarNode, *, temperature: float = 1.0) -> np.ndarray:
        size = root.position.size
        policy = np.zeros(size * size + 1, dtype=np.float64)
        for index, child in root.children.items():
            policy[index] = child.visit_count
        if policy.sum() == 0:
            policy[-1] = 1.0
            return policy
        if temperature <= 1e-6:
            one_hot = np.zeros_like(policy)
            one_hot[int(np.argmax(policy))] = 1.0
            return one_hot
        sharpened = policy ** (1.0 / temperature)
        total = sharpened.sum()
        if total == 0 or not np.isfinite(total):
            one_hot = np.zeros_like(policy)
            one_hot[int(np.argmax(policy))] = 1.0
            return one_hot
        return sharpened / total

    def search_steps(self, position: GoPosition, *, add_noise: bool = True):
        cursor = ScalarSearchCursor(self, position, add_noise=add_noise)
        while cursor.request is not None:
            yield cursor.request
            cursor.advance()
        return cursor.root


class ScalarSearchCursor(SearchCursor):
    """:class:`SearchCursor` rooted at a :class:`ScalarNode`."""

    def __init__(self, mcts: MCTS, position: GoPosition, *, add_noise: bool = True) -> None:
        super().__init__(mcts, position, add_noise=add_noise)
        self.root = ScalarNode(position=position)


def stack_each_features(positions) -> np.ndarray:
    """The request block as it was built before :func:`repro.sim.go.stacked_features`:
    one ``features()`` call per leaf.  Assign it over
    ``repro.minigo.mcts.stacked_features`` to search positions of an engine
    without bitboards (``oracles.go_reference``)."""
    return np.stack([position.features() for position in positions])


def root_visits(root) -> np.ndarray:
    """Visit count per move index for a root of either node layout."""
    size = root.position.size
    visits = np.zeros(size * size + 1, dtype=np.int64)
    for index, child in root.children.items():
        visits[index] = child.visit_count
    return visits
