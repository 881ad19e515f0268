"""Oracle tests: the incremental Go engine vs the preserved reference engine.

The optimized :class:`repro.sim.go.GoBoard` replaces flood-fill-per-query
with incrementally-maintained group/liberty maps and an incremental Zobrist
hash.  These tests pin it against the verbatim pre-optimization
implementation (``tests/oracles/go_reference.py``):

* hundreds of seeded random 9x9 games with *identical* legal-move sets,
  captures, ko verdicts, board arrays and final scores at every step;
* a hypothesis property test that replays dense random games and checks the
  incremental liberty bookkeeping against a from-scratch flood fill after
  every move — capture cascades included;
* Zobrist consistency (incremental == recomputed, repeats collide);
* the bitboard legality mask (``legal_mask``) against the reference legal
  moves on every position, ko, suicide and capture-to-live points included,
  at board sizes 3 to 19, and the bitboard feature planes against the
  reference NumPy construction, one position at a time and batched
  (``legal_masks``, ``stacked_features``);
* the empty/black/white bitboards against the board array after every move,
  and across a pickle round trip;
* the MCTS materializes only the children it selects, each equal to the
  parent position played forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.go_reference import (ReferenceGoBoard, ReferenceGoPosition,
                                  bitboards_from_scratch, zobrist_from_scratch)
from repro.sim.go import (BLACK, EMPTY, WHITE, GoBoard, GoPosition, legal_masks,
                          stacked_features)

#: The acceptance bar: at least this many full 9x9 oracle games.
ORACLE_GAMES = 200
ORACLE_BOARD_SIZE = 9
#: Chance of passing per move: high enough that games end by double-pass in
#: a few dozen moves (keeping 200 games fast), low enough that boards get
#: crowded and captures/ko fights actually happen.
ORACLE_PASS_PROBABILITY = 0.15


def _mask_of(moves, size: int) -> np.ndarray:
    """The move-index legality mask a legal-move list describes."""
    mask = np.zeros(size * size + 1, dtype=bool)
    for move in moves:
        mask[size * size if move is None else move[0] * size + move[1]] = True
    return mask


def _random_playout(board_new: GoBoard, board_ref: ReferenceGoBoard,
                    rng: np.random.Generator):
    """Play one full random game on both boards, asserting parity per move."""
    to_play = BLACK
    passes = 0
    moves = 0
    max_moves = 2 * board_new.size * board_new.size
    while passes < 2 and moves < max_moves:
        legal_new = board_new.legal_moves(to_play)
        legal_ref = board_ref.legal_moves(to_play)
        assert legal_new == legal_ref, \
            f"legal-move sets diverged at move {moves}: {set(legal_new) ^ set(legal_ref)}"
        assert np.array_equal(board_new.legal_mask(to_play),
                              _mask_of(legal_ref, board_new.size)), \
            f"legality mask diverged at move {moves}"
        assert board_new.ko_point == board_ref.ko_point, \
            f"ko verdicts diverged at move {moves}"

        board_moves = legal_new[:-1]  # strip the trailing pass
        if not board_moves or rng.random() < ORACLE_PASS_PROBABILITY:
            move = None
        else:
            move = board_moves[rng.integers(0, len(board_moves))]
        captured_new = board_new.play(move, to_play)
        captured_ref = board_ref.play(move, to_play)
        assert sorted(captured_new) == sorted(captured_ref), \
            f"captures diverged at move {moves}"
        assert np.array_equal(board_new.board, board_ref.board)
        passes = passes + 1 if move is None else 0
        moves += 1
        to_play = -to_play
    assert board_new.area_score() == board_ref.area_score()
    assert board_new.zobrist == zobrist_from_scratch(board_new)
    # Group/liberty parity over the final position, stone by stone.
    for row in range(board_new.size):
        for col in range(board_new.size):
            if board_new.board[row, col] != EMPTY:
                assert board_new.group_and_liberties(row, col) == \
                    board_ref.group_and_liberties(row, col)
    return moves


def test_random_game_oracle_200_full_9x9_games():
    """>=200 seeded random 9x9 games: the two engines never disagree."""
    rng = np.random.default_rng(20260728)
    total_moves = 0
    for _ in range(ORACLE_GAMES):
        total_moves += _random_playout(
            GoBoard(ORACLE_BOARD_SIZE), ReferenceGoBoard(ORACLE_BOARD_SIZE), rng)
    assert total_moves > ORACLE_GAMES * 5  # games actually got played


def test_multi_group_capture_cascade_matches_reference():
    """One move capturing several separate groups at once."""
    def setup(board_cls):
        board = board_cls(5)
        for point in [(0, 2), (1, 1), (2, 0)]:
            board.play(point, BLACK)
        for point in [(0, 1), (1, 0)]:
            board.play(point, WHITE)
        return board

    new, ref = setup(GoBoard), setup(ReferenceGoBoard)
    captured_new = new.play((0, 0), BLACK)   # captures both white stones
    captured_ref = ref.play((0, 0), BLACK)
    assert sorted(captured_new) == sorted(captured_ref) == [(0, 1), (1, 0)]
    assert new.ko_point is None  # two captures -> no simple ko
    assert np.array_equal(new.board, ref.board)
    # The capturing group gained the captured points back as liberties.
    _, liberties = new.group_and_liberties(0, 0)
    assert {(0, 1), (1, 0)} <= liberties
    assert new.zobrist == zobrist_from_scratch(new)


def _flood_group(board: np.ndarray, row: int, col: int):
    """From-scratch flood fill: the oracle for the incremental maps."""
    size = board.shape[0]
    color = board[row, col]
    group, liberties = set(), set()
    frontier = [(row, col)]
    while frontier:
        r, c = frontier.pop()
        if (r, c) in group:
            continue
        group.add((r, c))
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if not (0 <= nr < size and 0 <= nc < size):
                continue
            if board[nr, nc] == EMPTY:
                liberties.add((nr, nc))
            elif board[nr, nc] == color and (nr, nc) not in group:
                frontier.append((nr, nc))
    return group, liberties


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_incremental_liberty_bookkeeping_survives_capture_cascades(seed):
    """Property: after every move of a dense random game, every group's
    incremental (stones, liberties) record equals a from-scratch flood fill.

    The game is played nearly pass-free on a small board, so stones crowd,
    groups merge, and capture cascades (multi-stone and multi-group
    removals) happen constantly — exactly the paths that mutate the
    incremental maps.
    """
    rng = np.random.default_rng(seed)
    board = GoBoard(5)
    to_play = BLACK
    captures_seen = 0
    for _ in range(40):
        moves = board.legal_moves(to_play, include_pass=False)
        if not moves:
            break
        captures_seen += len(board.play(moves[rng.integers(0, len(moves))], to_play))
        # Every stone's group record must match the flood-fill oracle.
        seen = set()
        for row in range(5):
            for col in range(5):
                if board.board[row, col] == EMPTY or (row, col) in seen:
                    continue
                group, liberties = board.group_and_liberties(row, col)
                assert (group, liberties) == _flood_group(board.board, row, col)
                assert all(board.board[p] == board.board[row, col] for p in group)
                assert liberties, "no group on the board may have zero liberties"
                seen |= group
        assert board.zobrist == zobrist_from_scratch(board)
        assert (board._empty, board._black, board._white) == bitboards_from_scratch(board)
        to_play = -to_play


# ---------------------------------------------------------------- Zobrist
def test_zobrist_incremental_matches_scratch_and_detects_repeats():
    board = GoBoard(5)
    empty_hash = board.zobrist
    board.play((1, 1), BLACK)
    after_stone = board.zobrist
    assert after_stone != empty_hash
    assert after_stone == zobrist_from_scratch(board)

    # Capture removes the stone's key again: surround and take.
    for point in [(0, 1), (2, 1), (1, 0)]:
        board.play(point, WHITE)
    board.play((1, 2), WHITE)  # captures (1, 1)
    assert board.zobrist == zobrist_from_scratch(board)
    assert board.board[1, 1] == EMPTY

    # Re-playing the identical stone layout reproduces the identical hash.
    replay = GoBoard(5)
    for point in [(0, 1), (2, 1), (1, 0), (1, 2)]:
        replay.play(point, WHITE)
    assert replay.zobrist == board.zobrist

    # position_key distinguishes side-to-move and ko state on equal stones.
    assert board.position_key(BLACK) != board.position_key(WHITE)
    assert board.position_key(BLACK, ko_point=(1, 1)) != board.position_key(BLACK)


def test_copy_isolates_incremental_state():
    board = GoBoard(5)
    board.play((2, 2), BLACK)
    fork = board.copy()
    fork.play((2, 3), WHITE)
    fork.play((1, 2), WHITE)
    assert board.board[2, 3] == EMPTY and board.board[1, 2] == EMPTY
    assert board.group_and_liberties(2, 2)[1] == _flood_group(board.board, 2, 2)[1]
    assert fork.group_and_liberties(2, 2)[1] == _flood_group(fork.board, 2, 2)[1]
    assert board.zobrist == zobrist_from_scratch(board)
    assert fork.zobrist == zobrist_from_scratch(fork)


# ----------------------------------------------------- position-level caching
def test_position_caches_are_stable_and_correct():
    position = GoPosition.initial(5)
    reference = ReferenceGoPosition.initial(5)
    assert position.legal_moves() == reference.legal_moves()
    assert position.legal_moves() is position.legal_moves()  # cached
    assert np.array_equal(position.features(), reference.features())
    assert position.features() is position.features()        # cached
    nxt = position.play((2, 2))
    ref_next = reference.play((2, 2))
    assert nxt.legal_moves() == ref_next.legal_moves()
    assert np.array_equal(nxt.features(), ref_next.features())
    assert nxt.transposition_key() != position.transposition_key()
    # index arithmetic parity
    for index in range(26):
        assert position.index_to_move(index) == reference.index_to_move(index)
    for move in position.legal_moves():
        assert position.move_to_index(move) == reference.move_to_index(move)


# ------------------------------------------------------------ legality mask
def _surrounded_empty(board: np.ndarray) -> np.ndarray:
    """Empty points whose every on-board neighbor is a stone."""
    size = board.shape[0]
    result = np.zeros_like(board, dtype=bool)
    for row in range(size):
        for col in range(size):
            if board[row, col] != EMPTY:
                continue
            result[row, col] = all(
                board[r, c] != EMPTY
                for r, c in ((row + 1, col), (row - 1, col), (row, col + 1), (row, col - 1))
                if 0 <= r < size and 0 <= c < size)
    return result


@pytest.mark.parametrize("size", [5, 7, 9])
def test_legal_mask_matches_reference_on_every_position(size):
    """Random games on GoPosition and ReferenceGoPosition side by side: on
    every position legal_mask() equals the masks built from legal_moves()
    and from the reference engine, through ko, suicide and capture points."""
    rng = np.random.default_rng(7000 + size)
    ko_points = suicides = captures_to_live = 0
    for _ in range(10):
        position = GoPosition.initial(size)
        reference = ReferenceGoPosition.initial(size)
        while not position.is_over:
            mask = position.legal_mask()
            assert mask is position.legal_mask()          # cached
            assert not mask.flags.writeable              # shared, read-only
            assert np.array_equal(mask, _mask_of(position.legal_moves(), size))
            assert np.array_equal(mask, _mask_of(reference.legal_moves(), size))
            _assert_features_match(position, reference)
            surrounded = _surrounded_empty(position.board.board).reshape(-1)
            ko = position.board.ko_point
            if ko is not None:
                ko_points += 1
                surrounded[ko[0] * size + ko[1]] = False
            suicides += int(np.count_nonzero(surrounded & ~mask[:-1]))
            captures_to_live += int(np.count_nonzero(surrounded & mask[:-1]))

            board_moves = position.legal_moves()[:-1]
            if not board_moves or rng.random() < 0.03:
                move = None
            else:
                move = board_moves[rng.integers(0, len(board_moves))]
            position, reference = position.play(move), reference.play(move)
    assert ko_points > 0 and suicides > 0 and captures_to_live > 0


def _assert_features_match(position, reference):
    """The bitboard feature planes equal the reference NumPy construction."""
    features, expected = position.features(), reference.features()
    assert features.dtype == expected.dtype == np.float32
    assert features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("size", [3, 5, 13, 19])
def test_bitboards_match_reference_at_every_board_size(size):
    """Shifting a bitboard by one moves a row's first point onto the previous
    row's last point.  Random dense games at several sizes (odd and even row
    lengths against the byte width) must keep the legality mask, the feature
    planes and the bitboards equal to the reference engine and the array."""
    rng = np.random.default_rng(8100 + size)
    games, max_moves = (20, 60) if size <= 5 else (1, 150)
    edge_stones = 0
    for _ in range(games):
        position = GoPosition.initial(size)
        reference = ReferenceGoPosition.initial(size)
        for _ in range(max_moves):
            if position.is_over:
                break
            mask = position.legal_mask()
            assert np.array_equal(mask, _mask_of(reference.legal_moves(), size))
            _assert_features_match(position, reference)
            board = position.board
            assert (board._empty, board._black, board._white) == bitboards_from_scratch(board)
            edge_stones += int(np.count_nonzero(board.board[:, [0, -1]]))
            board_moves = position.legal_moves()[:-1]
            if not board_moves or rng.random() < 0.03:
                move = None
            else:
                move = board_moves[rng.integers(0, len(board_moves))]
            position, reference = position.play(move), reference.play(move)
    assert edge_stones > 0


def test_pickle_round_trip_keeps_bitboards():
    """A position pickled mid-game keeps its bitboards, and play continues
    identically on the copy and the original."""
    import pickle

    rng = np.random.default_rng(5)
    position = GoPosition.initial(5)
    for _ in range(12):
        moves = position.legal_moves()[:-1]
        position = position.play(moves[rng.integers(0, len(moves))])
    restored = pickle.loads(pickle.dumps(position))
    for board in (position.board, restored.board):
        assert (board._empty, board._black, board._white) == bitboards_from_scratch(board)
    assert (restored.board._empty, restored.board._black, restored.board._white) == \
        (position.board._empty, position.board._black, position.board._white)
    assert np.array_equal(restored.legal_mask(), position.legal_mask())
    assert restored.features().tobytes() == position.features().tobytes()
    for move in position.legal_moves()[:3]:
        after, restored_after = position.play(move), restored.play(move)
        assert np.array_equal(after.legal_mask(), restored_after.legal_mask())
        assert after.features().tobytes() == restored_after.features().tobytes()


def test_legal_mask_ko_suicide_and_capture_to_live_points():
    # Ko: Black captures the white stone at (1, 1) by playing (1, 2); White
    # may not retake at once, though the retake would capture.
    board = GoBoard(5)
    for point in [(0, 1), (1, 0), (2, 1)]:
        board.play(point, BLACK)
    for point in [(0, 2), (1, 1), (2, 2), (1, 3)]:
        board.play(point, WHITE)
    assert board.play((1, 2), BLACK) == [(1, 1)]
    assert board.ko_point == (1, 1)
    assert not board.legal_mask(WHITE)[1 * 5 + 1]
    assert np.array_equal(board.legal_mask(WHITE), _mask_of(board.legal_moves(WHITE), 5))

    # (0, 0) is surrounded by two black stones whose only liberty it is:
    # suicide for Black, a capture (so legal) for White.
    board = GoBoard(5)
    for point in [(0, 1), (1, 0)]:
        board.play(point, BLACK)
    for point in [(0, 2), (1, 1), (2, 0)]:
        board.play(point, WHITE)
    assert not board.legal_mask(BLACK)[0]
    assert board.legal_mask(WHITE)[0]
    for color in (BLACK, WHITE):
        mask = board.legal_mask(color)
        assert mask[-1]  # pass
        assert np.array_equal(mask, _mask_of(board.legal_moves(color), 5))

    # Suicide into stones that keep other liberties.
    board = GoBoard(5)
    for point in [(0, 1), (1, 0)]:
        board.play(point, BLACK)
    assert not board.legal_mask(WHITE)[0]


def _uncached(position: GoPosition) -> GoPosition:
    """The same position with empty legality and feature caches."""
    return GoPosition(board=position.board, to_play=position.to_play,
                      consecutive_passes=position.consecutive_passes,
                      move_count=position.move_count)


def _ko_and_surrounded_positions():
    """The hand-built ko and surrounded-point boards above, both colors to move."""
    ko = GoBoard(5)
    for point in [(0, 1), (1, 0), (2, 1)]:
        ko.play(point, BLACK)
    for point in [(0, 2), (1, 1), (2, 2), (1, 3)]:
        ko.play(point, WHITE)
    ko.play((1, 2), BLACK)
    surrounded = GoBoard(5)
    for point in [(0, 1), (1, 0)]:
        surrounded.play(point, BLACK)
    for point in [(0, 2), (1, 1), (2, 0)]:
        surrounded.play(point, WHITE)
    return [GoPosition(board=board.copy(), to_play=color)
            for board in (ko, surrounded) for color in (BLACK, WHITE)]


def test_batched_unpacking_matches_the_per_position_engine():
    """``legal_masks`` and ``stacked_features`` unpack a list of positions
    with one ``np.unpackbits`` each.  On random dense positions at sizes 3
    to 19 (ko and fully surrounded points included) every row equals the
    one-position unpack (whose bits the tests above pin to the reference
    engine) and the reference feature planes.  Each row becomes that
    position's cached mask (read-only) and features, and a later call
    returns the cached rows without unpacking again."""
    ko_points = surrounded = 0
    for size in (3, 5, 7, 9, 13, 19):
        rng = np.random.default_rng(8200 + size)
        positions, references = [], []
        if size == 5:
            positions += _ko_and_surrounded_positions()
            references += [None] * len(positions)
        for _ in range(4 if size <= 9 else 1):
            position = GoPosition.initial(size)
            reference = ReferenceGoPosition.initial(size)
            for _ in range(3 * size * size // 2):
                if position.is_over:
                    break
                positions.append(position)
                references.append(reference)
                board_moves = position.legal_moves()[:-1]
                if not board_moves or rng.random() < 0.03:
                    move = None
                else:
                    move = board_moves[rng.integers(0, len(board_moves))]
                position, reference = position.play(move), reference.play(move)
        for start in range(0, len(positions), 16):
            fresh = [_uncached(position) for position in positions[start:start + 16]]
            mixed = [_uncached(position) for position in fresh]
            for position in mixed[::3]:  # cached first through the one-row path
                position.legal_mask()
                position.features()
            held = [(position.legal_mask(), position.features()) for position in mixed[::3]]

            masks, features = legal_masks(fresh), stacked_features(fresh)
            assert masks.dtype == bool and features.dtype == np.float32
            assert masks.shape == (len(fresh), size * size + 1)
            assert features.shape == (len(fresh), 3 * size * size)
            assert np.array_equal(legal_masks(mixed), masks)
            assert stacked_features(mixed).tobytes() == features.tobytes()
            assert all(position.legal_mask() is mask and position.features() is planes
                       for position, (mask, planes) in zip(mixed[::3], held))
            for index, position in enumerate(fresh):
                board = position.board
                reference = references[start + index]
                assert np.array_equal(masks[index], board.legal_mask(position.to_play))
                if reference is not None:
                    assert features[index].tobytes() == reference.features().tobytes()
                mask = position.legal_mask()
                assert np.shares_memory(mask, masks) and not mask.flags.writeable
                assert np.shares_memory(position.features(), features)
                ko_points += board.ko_point is not None
                surrounded += int(np.count_nonzero(_surrounded_empty(board.board)))
            cached = [(position.legal_mask(), position.features()) for position in fresh]
            assert np.array_equal(legal_masks(fresh), masks)
            assert stacked_features(fresh).tobytes() == features.tobytes()
            assert all(position.legal_mask() is mask and position.features() is planes
                       for position, (mask, planes) in zip(fresh, cached))
    assert ko_points > 0 and surrounded > 0


# ------------------------------------------------------ selected MCTS children
def _uniform_evaluator(num_moves):
    def evaluate(features):
        batch = features.shape[0]
        priors = np.full((batch, num_moves), 1.0 / num_moves, dtype=np.float32)
        return priors, np.zeros(batch, dtype=np.float32)
    return evaluate


def test_only_selected_children_are_materialized():
    """Expansion builds no child objects: only children a simulation selected
    exist, and each one's position equals ``parent.position.play(move)``."""
    from repro.minigo.mcts import MCTS

    mcts = MCTS(_uniform_evaluator(26), num_simulations=24, leaf_batch=4,
                rng=np.random.default_rng(11))
    root = mcts.search(GoPosition.initial(5))

    assert 0 < len(root.children) < int(np.count_nonzero(root.legal))
    assert sorted(root.children) == np.flatnonzero(root.child_N).tolist()

    def check(node):
        for index, child in node.children.items():
            assert child.parent is node and child.index == index
            expected = node.position.play(node.position.index_to_move(index))
            assert np.array_equal(child.position.board.board, expected.board.board)
            assert child.position.to_play == expected.to_play
            assert child.position.transposition_key() == expected.transposition_key()
            check(child)
    check(root)
