"""The game of Go: board rules, a position class for MCTS, and a gym-style env.

Minigo (the scale-up workload of Section 4.3) trains a policy/value network
through MCTS self-play on Go.  This module implements the game itself: stone
placement, capture, the suicide rule, simple-ko, passing, and area scoring
with komi, on a configurable board size (9x9 by default to keep the
reproduction fast).

The board keeps **incrementally-maintained group and liberty maps**: every
occupied point maps to an immutable group record (color, stones, liberties)
that is updated in place as stones are played and captures cascade, plus an
incrementally-maintained Zobrist hash of the stone configuration.  Legality
is therefore an O(neighbors) lookup instead of the flood-fill-per-candidate
scan of the original implementation (preserved verbatim as a test oracle
in ``tests/oracles/`` and pinned equivalent by the random-game oracle in
``tests/test_go_oracle.py``).  The board also keeps **bitboards** (Python
ints, bit ``row * size + col``) of its empty, black and white points.
:meth:`GoBoard.legal_bits` finds every empty point with an empty neighbor
by four shifts of the empty bitboard and checks only the few fully
surrounded empty points one by one; :meth:`GoBoard.legal_mask` unpacks that
bitboard into a bool array in a single NumPy call, ``legal_moves`` is a view
of that mask, and :meth:`GoPosition.features` is one unpack of the own,
opponent and turn planes.  :class:`GoPosition` is immutable, so its
``legal_mask()``/``legal_moves()``/``features()`` are computed once and
cached per instance.  :func:`legal_masks` and :func:`stacked_features` do
the same for a list of positions with one unpack per list (an MCTS wave's
leaves), storing each row as that position's cached array; the
one-position methods are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..system import System
from .base import Env, StepResult
from .spaces import Box, Discrete

EMPTY = 0
BLACK = 1
WHITE = -1

Move = Optional[Tuple[int, int]]  #: board coordinate, or None for "pass"


def opponent(color: int) -> int:
    return -color


# ------------------------------------------------------------- board geometry
#: Per-size caches shared by every board instance: the row-major point list,
#: the point -> neighbor-tuple map, the bitboard edge masks and the Zobrist
#: key tables.  Boards of the same size share these read-only structures, so
#: copying a board never copies them.
_POINTS_CACHE: Dict[int, Tuple[Tuple[int, int], ...]] = {}
_NEIGHBORS_CACHE: Dict[int, Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]]] = {}
_EDGES_CACHE: Dict[int, Tuple[int, int]] = {}
_ZOBRIST_CACHE: Dict[int, Tuple[List[List[int]], List[int], int]] = {}

#: Seed of the Zobrist key stream.  Fixed forever: hashes are persisted in
#: nothing, but tests pin incremental == from-scratch recomputation.
_ZOBRIST_SEED = 0x60B0A12D


def _points(size: int) -> Tuple[Tuple[int, int], ...]:
    points = _POINTS_CACHE.get(size)
    if points is None:
        points = tuple((row, col) for row in range(size) for col in range(size))
        _POINTS_CACHE[size] = points
    return points


def _neighbor_map(size: int) -> Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]]:
    neighbors = _NEIGHBORS_CACHE.get(size)
    if neighbors is None:
        neighbors = {
            (row, col): tuple(
                (row + dr, col + dc)
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= row + dr < size and 0 <= col + dc < size
            )
            for row, col in _points(size)
        }
        _NEIGHBORS_CACHE[size] = neighbors
    return neighbors


def _edge_masks(size: int) -> Tuple[int, int]:
    """Bitboards of the points off the left column and off the right column.

    A one-bit shift moves a row's first point onto the previous row's last
    point; masking with these drops the bits that wrapped around a row edge.
    """
    edges = _EDGES_CACHE.get(size)
    if edges is None:
        board = (1 << (size * size)) - 1
        left_column = sum(1 << (row * size) for row in range(size))
        edges = _EDGES_CACHE[size] = (board ^ left_column, board ^ left_column << (size - 1))
    return edges


def _unpack_rows(bits: List[int], count: int) -> np.ndarray:
    """The low ``count`` bits of each int in ``bits``, bit 0 first, as the
    uint8 0/1 rows of one block: one ``np.unpackbits`` for every row."""
    width = (count + 7) // 8
    raw = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in bits]), np.uint8)
    return np.unpackbits(raw.reshape(len(bits), width), axis=1, count=count, bitorder="little")


def _zobrist_tables(size: int) -> Tuple[List[List[int]], List[int], int]:
    """(stone_keys[point][channel], ko_keys[point], turn_key) for one size.

    ``channel`` 0 is Black, 1 is White.  Keys are plain Python ints so the
    incremental XOR stays exact arbitrary-precision arithmetic.
    """
    tables = _ZOBRIST_CACHE.get(size)
    if tables is None:
        rng = np.random.default_rng(_ZOBRIST_SEED + size)
        raw = rng.integers(1, 2 ** 63, size=(size * size, 3), dtype=np.int64)
        stone_keys = [[int(raw[p, 0]), int(raw[p, 1])] for p in range(size * size)]
        ko_keys = [int(raw[p, 2]) for p in range(size * size)]
        turn_key = int(rng.integers(1, 2 ** 63, dtype=np.int64))
        tables = (stone_keys, ko_keys, turn_key)
        _ZOBRIST_CACHE[size] = tables
    return tables


def _mask_moves(mask: np.ndarray, points: Tuple[Tuple[int, int], ...],
                include_pass: bool) -> List[Move]:
    """The moves a legality mask marks, in index order (pass last)."""
    moves: List[Move] = [points[index] for index in np.flatnonzero(mask[:-1]).tolist()]
    if include_pass:
        moves.append(None)
    return moves


class _Group:
    """One connected group of stones with its liberties — immutable.

    Immutability is what makes :meth:`GoBoard.copy` cheap: a copied board
    shallow-copies the point -> group map and shares every group record with
    the original; any later mutation replaces records instead of editing
    them.
    """

    __slots__ = ("color", "stones", "liberties")

    def __init__(self, color: int, stones: frozenset, liberties: frozenset) -> None:
        self.color = color
        self.stones = stones
        self.liberties = liberties


class GoBoard:
    """Board state plus the rules of play, with incremental bookkeeping.

    Public surface (``board`` array, ``ko_point``, ``copy``, ``is_legal``,
    ``play``, ``legal_moves``, ``group_and_liberties``, ``area_score``) is
    identical to the reference implementation; the random-game oracle test
    pins the two move-for-move.  Additionally :meth:`legal_mask` gives the
    legal moves as a bool mask over move indices (:meth:`legal_bits` as a
    bitboard), and :attr:`zobrist` exposes
    the incrementally-maintained hash of the stone configuration.
    ``_empty``/``_black``/``_white`` are bitboards (bit ``row * size + col``)
    kept in lockstep with ``board`` and the group map.
    """

    def __init__(self, size: int = 9, komi: float = 6.5) -> None:
        if size < 3:
            raise ValueError("board size must be at least 3")
        self.size = size
        self.komi = komi
        self.board = np.zeros((size, size), dtype=np.int8)
        self.ko_point: Optional[Tuple[int, int]] = None
        #: point -> _Group for every occupied point (empty points are absent).
        self._group_at: Dict[Tuple[int, int], _Group] = {}
        self._neighbors = _neighbor_map(size)
        self._points = _points(size)
        self._edges = _edge_masks(size)
        self._stone_keys, self._ko_keys, self._turn_key = _zobrist_tables(size)
        self.zobrist = 0  #: incremental Zobrist hash of the stone layout
        self._empty = (1 << (size * size)) - 1
        self._black = 0
        self._white = 0

    # ------------------------------------------------------------------ utils
    def copy(self) -> "GoBoard":
        new = GoBoard.__new__(GoBoard)
        new.size = self.size
        new.komi = self.komi
        new.board = self.board.copy()
        new.ko_point = self.ko_point
        new._group_at = dict(self._group_at)
        new._neighbors = self._neighbors
        new._points = self._points
        new._edges = self._edges
        new._stone_keys = self._stone_keys
        new._ko_keys = self._ko_keys
        new._turn_key = self._turn_key
        new.zobrist = self.zobrist
        new._empty = self._empty
        new._black = self._black
        new._white = self._white
        return new

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.size and 0 <= col < self.size

    def neighbors(self, row: int, col: int) -> Iterable[Tuple[int, int]]:
        return self._neighbors[(row, col)]

    def group_and_liberties(self, row: int, col: int) -> Tuple[Set[Tuple[int, int]], Set[Tuple[int, int]]]:
        """Connected group containing (row, col) and its liberties."""
        group = self._group_at.get((row, col))
        if group is None:
            raise ValueError("no stone at the given point")
        return set(group.stones), set(group.liberties)

    def position_key(self, to_play: int, ko_point: Optional[Tuple[int, int]] = None) -> int:
        """Transposition key: stones ^ ko point ^ side to move.

        Built from the incremental :attr:`zobrist` stone hash, so it is O(1)
        per query — the hook for transposition tables / positional-superko
        follow-ons without changing the simple-ko rule the records pin.
        """
        key = self.zobrist
        ko = ko_point if ko_point is not None else self.ko_point
        if ko is not None:
            key ^= self._ko_keys[ko[0] * self.size + ko[1]]
        if to_play == WHITE:
            key ^= self._turn_key
        return key

    # ------------------------------------------------------------------ rules
    def is_legal(self, move: Move, color: int) -> bool:
        if move is None:
            return True
        row, col = move
        if not (0 <= row < self.size and 0 <= col < self.size):
            return False
        point = (row, col)
        if point in self._group_at:  # occupied (board and map move in lockstep)
            return False
        if self.ko_point == point:
            return False
        return self._legal_at_empty(point, color)

    def _legal_at_empty(self, point: Tuple[int, int], color: int) -> bool:
        """Legality of playing ``color`` on a known-empty, non-ko point.

        O(neighbors): the move is legal iff the point has an empty neighbor,
        or joins a friendly group that keeps another liberty, or captures an
        adjacent opponent group whose last liberty is this point.
        """
        group_at = self._group_at
        neighbor_groups = []
        for neighbor in self._neighbors[point]:
            group = group_at.get(neighbor)
            if group is None:
                return True  # an empty neighbor is a liberty of the new stone
            neighbor_groups.append(group)
        for group in neighbor_groups:
            if group.color == color:
                # point is one of the group's liberties; any other survives.
                if len(group.liberties) > 1:
                    return True
            elif len(group.liberties) == 1:
                # The opponent group's only liberty is this point: captured.
                return True
        return False

    def _place(self, row: int, col: int, color: int) -> List[Tuple[int, int]]:
        """Place a stone and remove captured opponent groups; returns captures."""
        point = (row, col)
        group_at = self._group_at
        stone_keys = self._stone_keys
        size = self.size
        index = row * size + col
        self.board[point] = color
        self.zobrist ^= stone_keys[index][0 if color == BLACK else 1]
        self._empty ^= 1 << index
        if color == BLACK:
            self._black |= 1 << index
        else:
            self._white |= 1 << index

        merged: List[_Group] = []
        enemies: List[_Group] = []
        own_liberties: Set[Tuple[int, int]] = set()
        for neighbor in self._neighbors[point]:
            group = group_at.get(neighbor)
            if group is None:
                own_liberties.add(neighbor)
            elif group.color == color:
                if not any(group is seen for seen in merged):
                    merged.append(group)
            elif not any(group is seen for seen in enemies):
                enemies.append(group)

        own_stones: Set[Tuple[int, int]] = {point}
        for group in merged:
            own_stones |= group.stones
            own_liberties |= group.liberties
        own_liberties.discard(point)

        captured: List[Tuple[int, int]] = []
        captured_bits = 0
        for group in enemies:
            if len(group.liberties) == 1:  # its only liberty was this point
                channel = 0 if group.color == BLACK else 1
                for prisoner in group.stones:
                    self.board[prisoner] = EMPTY
                    del group_at[prisoner]
                    prisoner_index = prisoner[0] * size + prisoner[1]
                    self.zobrist ^= stone_keys[prisoner_index][channel]
                    captured_bits |= 1 << prisoner_index
                    captured.append(prisoner)
            else:
                survivor = _Group(group.color, group.stones, group.liberties - {point})
                for stone in group.stones:
                    group_at[stone] = survivor

        if captured:
            self._empty |= captured_bits
            if color == BLACK:
                self._white ^= captured_bits
            else:
                self._black ^= captured_bits
            # Each captured point becomes a liberty of every adjacent group
            # that survives.  Adjacent stones are necessarily the placing
            # color (two touching stones of one color share a group, so no
            # *other* opponent group can touch the captured one): either the
            # new merged group, or a friendly group elsewhere on the board.
            gained: Dict[int, Tuple[_Group, Set[Tuple[int, int]]]] = {}
            merged_ids = {id(group) for group in merged}
            for prisoner in captured:
                for neighbor in self._neighbors[prisoner]:
                    if neighbor in own_stones:
                        own_liberties.add(prisoner)
                        continue
                    group = group_at.get(neighbor)
                    if group is not None and id(group) not in merged_ids:
                        entry = gained.get(id(group))
                        if entry is None:
                            gained[id(group)] = (group, {prisoner})
                        else:
                            entry[1].add(prisoner)
            for group, liberties in gained.values():
                enriched = _Group(group.color, group.stones, group.liberties | liberties)
                for stone in group.stones:
                    group_at[stone] = enriched

        new_group = _Group(color, frozenset(own_stones), frozenset(own_liberties))
        for stone in own_stones:
            group_at[stone] = new_group
        return captured

    def play(self, move: Move, color: int) -> List[Tuple[int, int]]:
        """Apply a legal move; returns the list of captured points."""
        if not self.is_legal(move, color):
            raise ValueError(f"illegal move {move} for color {color}")
        self.ko_point = None
        if move is None:
            return []
        row, col = move
        captured = self._place(row, col, color)
        # Simple ko: a single-stone capture that leaves the new stone with a
        # single liberty at the captured point forbids immediate recapture.
        if len(captured) == 1:
            group = self._group_at[(row, col)]
            if len(group.stones) == 1 and len(group.liberties) == 1:
                self.ko_point = captured[0]
        return captured

    def legal_mask(self, color: int) -> np.ndarray:
        """Legality of every move index for ``color``: row-major points, then pass."""
        return _unpack_rows([self.legal_bits(color)], self.size * self.size + 1)[0].view(bool)

    def legal_bits(self, color: int) -> int:
        """:meth:`legal_mask` as a bitboard: bit ``index`` set iff that move is legal.

        Four shifts of the empty bitboard mark each empty point that has an
        empty neighbor (always legal: the neighbor is a liberty of the new
        stone); the edge masks drop shifts that wrapped around a row end.
        Only the few fully surrounded empty points fall back to
        :meth:`_legal_at_empty`.  The ko point is cleared and the pass bit set.
        """
        size = self.size
        not_left, not_right = self._edges
        empty = self._empty
        open_neighbor = (((empty >> 1) & not_right) | ((empty << 1) & not_left)
                         | (empty >> size) | (empty << size))
        legal = empty & open_neighbor
        surrounded = empty & ~open_neighbor
        while surrounded:
            low = surrounded & -surrounded
            if self._legal_at_empty(self._points[low.bit_length() - 1], color):
                legal |= low
            surrounded ^= low
        ko = self.ko_point
        if ko is not None:
            legal &= ~(1 << (ko[0] * size + ko[1]))
        return legal | 1 << (size * size)  # passing is always legal

    def legal_moves(self, color: int, *, include_pass: bool = True) -> List[Move]:
        """The legal moves in :meth:`legal_mask` order (pass last, if included)."""
        return _mask_moves(self.legal_mask(color), self._points, include_pass)

    # ---------------------------------------------------------------- scoring
    def area_score(self) -> float:
        """Area score from Black's perspective (stones + territory - komi)."""
        black = float(np.sum(self.board == BLACK))
        white = float(np.sum(self.board == WHITE))
        territory_black, territory_white = self._territory()
        return (black + territory_black) - (white + territory_white) - self.komi

    def _territory(self) -> Tuple[float, float]:
        visited: Set[Tuple[int, int]] = set()
        black_territory = 0.0
        white_territory = 0.0
        for row in range(self.size):
            for col in range(self.size):
                if self.board[row, col] != EMPTY or (row, col) in visited:
                    continue
                region: Set[Tuple[int, int]] = set()
                borders: Set[int] = set()
                frontier = [(row, col)]
                while frontier:
                    point = frontier.pop()
                    if point in region:
                        continue
                    region.add(point)
                    for neighbor in self.neighbors(*point):
                        value = self.board[neighbor]
                        if value == EMPTY:
                            if neighbor not in region:
                                frontier.append(neighbor)
                        else:
                            borders.add(int(value))
                visited |= region
                if borders == {BLACK}:
                    black_territory += len(region)
                elif borders == {WHITE}:
                    white_territory += len(region)
        return black_territory, white_territory


@dataclass
class GoPosition:
    """Immutable game position for tree search: board + whose turn + pass count.

    Positions never change after construction, so the expensive derived
    quantities — the legality mask, the legal-move list and the network
    feature planes — are computed once and cached on the instance (the
    arrays may be rows of a block that :func:`legal_masks` or
    :func:`stacked_features` unpacked for several positions at once).
    Callers treat the returned list/arrays as read-only (the mask is flagged
    so).
    """

    board: GoBoard
    to_play: int = BLACK
    consecutive_passes: int = 0
    move_count: int = 0

    def __post_init__(self) -> None:
        self._size = self.board.size
        self._pass_index = self._size * self._size
        self._legal_mask: Optional[np.ndarray] = None
        self._legal_moves: Optional[List[Move]] = None
        self._features: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, size: int = 9, komi: float = 6.5) -> "GoPosition":
        return cls(board=GoBoard(size, komi))

    @property
    def size(self) -> int:
        return self._size

    def legal_mask(self) -> np.ndarray:
        """Read-only bool legality mask over move indices (cached)."""
        if self._legal_mask is None:
            legal_masks([self])
        return self._legal_mask

    def legal_moves(self) -> List[Move]:
        moves = self._legal_moves
        if moves is None:
            moves = _mask_moves(self.legal_mask(), self.board._points, True)
            self._legal_moves = moves
        return moves

    def play(self, move: Move) -> "GoPosition":
        """Return the successor position after the current player plays ``move``."""
        board = self.board.copy()
        board.play(move, self.to_play)
        passes = self.consecutive_passes + 1 if move is None else 0
        return GoPosition(
            board=board,
            to_play=opponent(self.to_play),
            consecutive_passes=passes,
            move_count=self.move_count + 1,
        )

    @property
    def is_over(self) -> bool:
        return self.consecutive_passes >= 2 or self.move_count >= 2 * self._pass_index

    def result(self) -> float:
        """+1 if Black wins, -1 if White wins (0 is impossible with fractional komi)."""
        score = self.board.area_score()
        return 1.0 if score > 0 else -1.0

    def features(self) -> np.ndarray:
        """Flat feature vector for the policy/value network (cached)."""
        if self._features is None:
            stacked_features([self])
        return self._features

    def _feature_bits(self) -> int:
        """The own-stone, opponent-stone and turn planes as one bitboard (the
        turn plane is all ones when Black is to play)."""
        board = self.board
        points = self._pass_index
        if self.to_play == BLACK:
            return board._black | board._white << points | ((1 << points) - 1) << 2 * points
        return board._white | board._black << points

    def transposition_key(self) -> int:
        """Zobrist key of (stones, ko point, side to move) — O(1) per call."""
        return self.board.position_key(self.to_play)

    def move_to_index(self, move: Move) -> int:
        if move is None:
            return self._pass_index
        return move[0] * self._size + move[1]

    def index_to_move(self, index: int) -> Move:
        if index == self._pass_index:
            return None
        return divmod(index, self._size)


def legal_masks(positions: Sequence[GoPosition]) -> np.ndarray:
    """The (len(positions), moves) bool block of one board size's legality masks.

    One unpack covers every position whose mask is not cached yet, and each
    of those rows becomes that position's cached, read-only
    :meth:`GoPosition.legal_mask`.
    """
    missing = [position for position in positions if position._legal_mask is None]
    if missing:
        rows = _unpack_rows([position.board.legal_bits(position.to_play) for position in missing],
                            missing[0]._pass_index + 1).view(bool)
        rows.flags.writeable = False
        for position, row in zip(missing, rows):
            position._legal_mask = row
        if len(missing) == len(positions):
            return rows
    return np.stack([position._legal_mask for position in positions])


def stacked_features(positions: Sequence[GoPosition]) -> np.ndarray:
    """The (len(positions), features) float32 block of one board size's
    :meth:`GoPosition.features`, unpacked and cached like :func:`legal_masks`."""
    missing = [position for position in positions if position._features is None]
    if missing:
        rows = _unpack_rows([position._feature_bits() for position in missing],
                            3 * missing[0]._pass_index).astype(np.float32)
        for position, row in zip(missing, rows):
            position._features = row
        if len(missing) == len(positions):
            return rows
    return np.stack([position._features for position in positions])


class GoEnv(Env):
    """Gym-style Go against a uniformly random opponent (plays White)."""

    sim_id = "Go"

    def __init__(self, system: System, *, seed: int = 0, size: int = 9, komi: float = 6.5) -> None:
        super().__init__(system, seed=seed)
        self.size = size
        self.komi = komi
        self.observation_space = Box(low=0.0, high=1.0, shape=(3 * size * size,))
        self.action_space = Discrete(size * size + 1)
        self.position = GoPosition.initial(size, komi)

    def _reset_state(self) -> np.ndarray:
        self.position = GoPosition.initial(self.size, self.komi)
        return self.position.features()

    def state_key(self) -> Optional[int]:
        """The position's incremental Zobrist key (stones + ko + side to move)."""
        return self.position.transposition_key()

    def _step_state(self, action: int) -> StepResult:
        move = self.position.index_to_move(int(action))
        if not self.position.board.is_legal(move, self.position.to_play):
            # Illegal moves are converted to a pass with a small penalty; this
            # keeps random policies from dead-locking the environment.
            move = None
            penalty = -0.1
        else:
            penalty = 0.0
        self.position = self.position.play(move)

        if not self.position.is_over:
            # Random opponent reply.
            moves = self.position.legal_moves()
            reply = moves[self.rng.integers(0, len(moves))]
            self.position = self.position.play(reply)

        done = self.position.is_over
        reward = penalty
        if done:
            reward += self.position.board.area_score() > 0 and 1.0 or -1.0
        info: Dict[str, Any] = {"move_count": self.position.move_count}
        return self.position.features(), reward, done, info
