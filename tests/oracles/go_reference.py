"""Reference (pre-optimization) Go engine, kept verbatim as a test oracle.

This module preserves the original flood-fill :class:`ReferenceGoBoard` and
the uncached :class:`ReferenceGoPosition` exactly as they shipped before the
incremental-group rewrite of :mod:`repro.sim.go`.  They are deliberately
slow — every ``is_legal`` copies the board and flood-fills groups with Python
sets, every ``legal_moves`` re-scans the whole board, and ``features()``
rebuilds its planes from scratch — which makes them useful twice over:

* the seeded random-game oracle tests (``tests/test_go_oracle.py``) play
  hundreds of full games on the reference and optimized boards side by side
  and require identical legal-move sets, captures, ko verdicts and scores;
* the wall-clock benchmark (``benchmarks/test_bench_wallclock.py``) runs the
  whole self-play pool on this engine to pin the *pre-optimization* baseline
  the ≥3x end-to-end speedup is measured against.

Do not "fix" or optimize anything here: its value is being the unchanged
original.  The two functions at the end are not part of that original: they
recompute an optimized board's incremental state (Zobrist hash, bitboards)
from its raw array, for the tests to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

EMPTY = 0
BLACK = 1
WHITE = -1

Move = Optional[Tuple[int, int]]  #: board coordinate, or None for "pass"


def opponent(color: int) -> int:
    return -color


class ReferenceGoBoard:
    """Board state plus the rules of play (original flood-fill implementation)."""

    def __init__(self, size: int = 9, komi: float = 6.5) -> None:
        if size < 3:
            raise ValueError("board size must be at least 3")
        self.size = size
        self.komi = komi
        self.board = np.zeros((size, size), dtype=np.int8)
        self.ko_point: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ utils
    def copy(self) -> "ReferenceGoBoard":
        new = ReferenceGoBoard(self.size, self.komi)
        new.board = self.board.copy()
        new.ko_point = self.ko_point
        return new

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.size and 0 <= col < self.size

    def neighbors(self, row: int, col: int) -> Iterable[Tuple[int, int]]:
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            r, c = row + dr, col + dc
            if self.in_bounds(r, c):
                yield r, c

    def group_and_liberties(self, row: int, col: int) -> Tuple[Set[Tuple[int, int]], Set[Tuple[int, int]]]:
        """Connected group containing (row, col) and its liberties."""
        color = self.board[row, col]
        if color == EMPTY:
            raise ValueError("no stone at the given point")
        group: Set[Tuple[int, int]] = set()
        liberties: Set[Tuple[int, int]] = set()
        frontier = [(row, col)]
        while frontier:
            point = frontier.pop()
            if point in group:
                continue
            group.add(point)
            for neighbor in self.neighbors(*point):
                value = self.board[neighbor]
                if value == EMPTY:
                    liberties.add(neighbor)
                elif value == color and neighbor not in group:
                    frontier.append(neighbor)
        return group, liberties

    # ------------------------------------------------------------------ rules
    def is_legal(self, move: Move, color: int) -> bool:
        if move is None:
            return True
        row, col = move
        if not self.in_bounds(row, col) or self.board[row, col] != EMPTY:
            return False
        if self.ko_point == (row, col):
            return False
        # Tentatively play to check for suicide.
        scratch = self.copy()
        scratch.ko_point = None
        captured = scratch._place(row, col, color)
        if captured:
            return True
        _, liberties = scratch.group_and_liberties(row, col)
        return len(liberties) > 0

    def _place(self, row: int, col: int, color: int) -> List[Tuple[int, int]]:
        """Place a stone and remove captured opponent groups; returns captures."""
        self.board[row, col] = color
        captured: List[Tuple[int, int]] = []
        for neighbor in self.neighbors(row, col):
            if self.board[neighbor] == opponent(color):
                group, liberties = self.group_and_liberties(*neighbor)
                if not liberties:
                    for point in group:
                        self.board[point] = EMPTY
                        captured.append(point)
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
            group, liberties = self.group_and_liberties(row, col)
            if len(group) == 1 and len(liberties) == 1:
                self.ko_point = captured[0]
        return captured

    def legal_moves(self, color: int, *, include_pass: bool = True) -> List[Move]:
        moves: List[Move] = [
            (row, col)
            for row in range(self.size)
            for col in range(self.size)
            if self.board[row, col] == EMPTY and self.is_legal((row, col), color)
        ]
        if include_pass:
            moves.append(None)
        return moves

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
class ReferenceGoPosition:
    """Original game position: no caching, every call recomputes from scratch."""

    board: ReferenceGoBoard
    to_play: int = BLACK
    consecutive_passes: int = 0
    move_count: int = 0

    @classmethod
    def initial(cls, size: int = 9, komi: float = 6.5) -> "ReferenceGoPosition":
        return cls(board=ReferenceGoBoard(size, komi))

    @property
    def size(self) -> int:
        return self.board.size

    def legal_moves(self) -> List[Move]:
        return self.board.legal_moves(self.to_play)

    def play(self, move: Move) -> "ReferenceGoPosition":
        """Return the successor position after the current player plays ``move``."""
        board = self.board.copy()
        board.play(move, self.to_play)
        passes = self.consecutive_passes + 1 if move is None else 0
        return ReferenceGoPosition(
            board=board,
            to_play=opponent(self.to_play),
            consecutive_passes=passes,
            move_count=self.move_count + 1,
        )

    @property
    def is_over(self) -> bool:
        return self.consecutive_passes >= 2 or self.move_count >= 2 * self.size * self.size

    def result(self) -> float:
        """+1 if Black wins, -1 if White wins (0 is impossible with fractional komi)."""
        score = self.board.area_score()
        return 1.0 if score > 0 else -1.0

    def features(self) -> np.ndarray:
        """Flat feature vector for the policy/value network."""
        own = (self.board.board == self.to_play).astype(np.float32)
        other = (self.board.board == opponent(self.to_play)).astype(np.float32)
        turn = np.full((self.size, self.size), 1.0 if self.to_play == BLACK else 0.0, dtype=np.float32)
        return np.concatenate([own.reshape(-1), other.reshape(-1), turn.reshape(-1)])

    def move_to_index(self, move: Move) -> int:
        if move is None:
            return self.size * self.size
        return move[0] * self.size + move[1]

    def index_to_move(self, index: int) -> Move:
        if index == self.size * self.size:
            return None
        return divmod(index, self.size)


# ------------------------------------- from-scratch views of a repro GoBoard
def zobrist_from_scratch(board) -> int:
    """Recompute a :class:`repro.sim.go.GoBoard`'s stone hash from its array.

    The incremental :attr:`~repro.sim.go.GoBoard.zobrist` must always equal
    this XOR of the board's per-point stone keys.
    """
    key = 0
    for index, value in enumerate(board.board.reshape(-1).tolist()):
        if value == BLACK:
            key ^= board._stone_keys[index][0]
        elif value == WHITE:
            key ^= board._stone_keys[index][1]
    return key


def bitboards_from_scratch(board) -> Tuple[int, int, int]:
    """The (empty, black, white) bitboards a :class:`repro.sim.go.GoBoard`
    array describes: bit ``row * size + col`` per point."""
    bitboards = {EMPTY: 0, BLACK: 0, WHITE: 0}
    for index, value in enumerate(board.board.reshape(-1).tolist()):
        bitboards[value] |= 1 << index
    return bitboards[EMPTY], bitboards[BLACK], bitboards[WHITE]
