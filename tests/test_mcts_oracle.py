"""Oracle tests: the array-of-children MCTS vs the preserved scalar search.

:mod:`repro.minigo.mcts` keeps each expanded node's children as arrays and
selects with one vectorized PUCT evaluation per tree level.  The scalar
search it replaced (one Python object per child, ``max(key=ucb_score)``) is
kept as a test oracle in ``tests/oracles/scalar_mcts.py``; these tests pin the
two bit for bit on seeded random positions — openings, middle games and
positions next to the end of the game, where terminal leaves and the
tiny-tree early stop of a wave come into play.
"""

import numpy as np
import pytest

from oracles.scalar_mcts import ScalarMCTS, root_visits
from repro.minigo.mcts import MCTS, MCTSNode
from repro.sim.go import BLACK, WHITE, GoBoard, GoPosition

#: Random positions searched per (board size, leaf_batch, transposition,
#: add_noise) combination.
POSITIONS_PER_CASE = 5


def _linear_evaluator(size: int, seed: int):
    """A fixed random policy/value network: deterministic in the features."""
    rng = np.random.default_rng(seed)
    num_features = 3 * size * size
    policy_weights = rng.normal(size=(num_features, size * size + 1)).astype(np.float32)
    value_weights = rng.normal(scale=0.2, size=num_features).astype(np.float32)

    def evaluate(features):
        logits = features @ policy_weights
        logits -= logits.max(axis=1, keepdims=True)
        priors = np.exp(logits)
        priors /= priors.sum(axis=1, keepdims=True)
        return priors.astype(np.float32), np.tanh(features @ value_weights)
    return evaluate


def _random_position(rng: np.random.Generator, size: int) -> GoPosition:
    """A seeded random non-terminal position: opening, middle or end game."""
    limit = 2 * size * size
    stage = rng.integers(0, 3)
    target = (0, int(rng.integers(1, limit - 2)), limit - int(rng.integers(1, 3)))[stage]
    position = GoPosition.initial(size)
    while position.move_count < target:
        board_moves = position.legal_moves()[:-1]
        if not board_moves or rng.random() < 0.1:
            successor = position.play(None)
        else:
            successor = position.play(board_moves[rng.integers(0, len(board_moves))])
        if successor.is_over:
            break
        position = successor
    return position


class _Recorder:
    """Counts terminal leaves and waves cut short by an already-pending leaf."""

    def __init__(self, mcts):
        self.terminal_leaves = 0
        self.early_stops = 0
        select = mcts._select_wave

        def recording(root, target):
            wave, pending = select(root, target)
            self.terminal_leaves += sum(value is not None for _, value in wave)
            self.early_stops += len(wave) < target
            return wave, pending
        mcts._select_wave = recording


def _search(mcts_cls, position, *, size, seed, add_noise, **kwargs):
    evaluate = _linear_evaluator(size, seed)
    requests = []

    def recording_evaluate(features):
        requests.append(features.tobytes())
        return evaluate(features)

    mcts = mcts_cls(recording_evaluate, rng=np.random.default_rng(seed), **kwargs)
    recorder = _Recorder(mcts)
    root = mcts.search(position, add_noise=add_noise)
    return mcts, root, requests, recorder


@pytest.mark.parametrize("size,num_simulations,leaf_batches,positions_per_case", [
    pytest.param(5, 40, (1, 3, 8), POSITIONS_PER_CASE, id="5-40"),
    pytest.param(9, 24, (1, 3, 8), POSITIONS_PER_CASE, id="9-24"),
    # Other board widths, where a wave's block rows are other lengths.
    pytest.param(7, 48, (3, 8), 3, id="7-48"),
    pytest.param(13, 64, (4, 8), 2, id="13-64"),
    pytest.param(19, 64, (4, 8), 2, id="19-64"),
])
def test_array_search_matches_scalar_oracle(size, num_simulations, leaf_batches,
                                            positions_per_case):
    rng = np.random.default_rng(1000 + size)
    terminal_leaves = early_stops = transposition_hits = 0
    for leaf_batch in leaf_batches:
        for transposition in (False, True):
            for add_noise in (False, True):
                for _ in range(positions_per_case):
                    position = _random_position(rng, size)
                    seed = int(rng.integers(0, 2 ** 31))
                    kwargs = dict(size=size, seed=seed, add_noise=add_noise,
                                  num_simulations=num_simulations,
                                  leaf_batch=leaf_batch, transposition=transposition)
                    mcts, root, requests, recorder = _search(MCTS, position, **kwargs)
                    oracle, oracle_root, oracle_requests, _ = _search(
                        ScalarMCTS, position, **kwargs)

                    assert requests == oracle_requests
                    assert np.array_equal(root_visits(root), root_visits(oracle_root))
                    assert np.array_equal(root.child_N, root_visits(oracle_root))
                    for temperature in (1.0, 0.5, 1e-6):
                        assert (mcts.policy_from_visits(root, temperature=temperature)
                                .tobytes()
                                == oracle.policy_from_visits(
                                    oracle_root, temperature=temperature).tobytes())
                    assert mcts.choose_move(root) == oracle.choose_move(oracle_root)
                    assert mcts.rng.bit_generator.state == oracle.rng.bit_generator.state
                    assert mcts.transposition_hits == oracle.transposition_hits
                    terminal_leaves += recorder.terminal_leaves
                    early_stops += recorder.early_stops
                    transposition_hits += mcts.transposition_hits
    # The seeded positions really reach the rarely-taken paths.
    assert terminal_leaves > 0
    assert early_stops > 0
    assert transposition_hits > 0


def _pass_only_position(size: int) -> GoPosition:
    """White to move on a board Black fills but for isolated one-point eyes:
    every empty point is suicide for White, so passing is its only legal move."""
    board = GoBoard(size)
    for row in range(size):
        for col in range(size):
            if not (row % 2 and col % 2):
                board.play((row, col), BLACK)
    return GoPosition(board=board, to_play=WHITE)


def _uncached(position: GoPosition) -> GoPosition:
    """The same position with empty legality and feature caches."""
    return GoPosition(board=position.board, to_play=position.to_play,
                      consecutive_passes=position.consecutive_passes,
                      move_count=position.move_count)


@pytest.mark.parametrize("size", [5, 7, 9, 13, 19])
def test_block_expansion_is_bit_identical_to_per_row_expansion(size):
    """``_expand_rows`` normalizes a wave's (k, moves) prior block with one
    row sum per row; every row must keep the exact bits of expanding that
    row alone with a 1-D ``sum()``, as the search did leaf by leaf.  The
    blocks include priors under the 1e-8 floor, rows whose only legal move
    is pass and float32 network rows converted to float64, over positions
    with and without a cached legality mask."""
    rng = np.random.default_rng(9000 + size)
    pool = [_random_position(rng, size) for _ in range(4)] + [_pass_only_position(size)]
    num_moves = size * size + 1
    assert np.flatnonzero(_uncached(pool[-1]).legal_mask()).tolist() == [num_moves - 1]
    pass_only_rows = 0
    for k in range(1, 17):
        c_puct = float(rng.choice([0.7, 1.5, 4.0]))
        mcts = MCTS(_linear_evaluator(size, k), c_puct=c_puct)
        picks = rng.integers(0, len(pool), size=k)
        positions = [pool[i] if rng.random() < 0.3 else _uncached(pool[i]) for i in picks]
        pass_only_rows += int(np.count_nonzero(picks == len(pool) - 1))
        priors = rng.random((k, num_moves))
        if k % 2:  # a network's float32 rows, converted once per wave
            priors = (priors / priors.sum(axis=1, keepdims=True)).astype(np.float32)
            priors = np.asarray(priors, dtype=np.float64)
        tiny = rng.random((k, num_moves)) < 0.2
        priors[tiny] = rng.choice([0.0, 1e-12, 5e-9, 1e-8], size=int(tiny.sum()))

        nodes = [MCTSNode(position=position) for position in positions]
        mcts._expand_rows(nodes, priors)
        for node, row in zip(nodes, priors):
            position = node.position
            legal = position.board.legal_mask(position.to_play)
            masked = np.maximum(row, 1e-8)
            masked *= legal
            masked /= masked.sum()
            assert np.array_equal(node.legal, legal)
            assert node.child_prior.tobytes() == masked.tobytes()
            assert node.child_U.tobytes() == np.where(legal, c_puct * masked,
                                                      -np.inf).tobytes()
            for counts in (node.child_N, node.child_W, node.child_VL):
                assert counts.shape == (num_moves,) and not counts.any()
    assert pass_only_rows > 0


def _textbook_puct(node, c_puct):
    """The PUCT formula as the array search first shipped it: a select on
    ``visits > 0`` for the mean and one on the legality mask."""
    visits = node.child_N + node.child_VL
    mean = np.divide(-node.child_W - node.child_VL, visits,
                     out=np.zeros(visits.shape), where=visits > 0)
    parent_visits = node.visit_count + node.virtual_loss
    scores = mean + c_puct * node.child_prior * np.sqrt(parent_visits) / (1 + visits)
    return np.where(node.legal, scores, -np.inf)


@pytest.mark.parametrize("seed", range(20))
def test_puct_scores_equal_the_textbook_formula_bit_for_bit(seed):
    """``child_U`` folds ``c_puct`` and the -inf legality mask into one
    array: every legal score must keep the textbook formula's exact bits, on
    a node nothing has visited yet and on a searched root under changing
    visits, values and virtual losses."""
    rng = np.random.default_rng(seed)
    size = 5
    position = _random_position(rng, size)
    c_puct = float(rng.choice([0.7, 1.5, 4.0]))
    mcts = MCTS(_linear_evaluator(size, seed), c_puct=c_puct, rng=rng)
    fresh = MCTSNode(position=position)
    mcts._expand_with_priors(fresh, rng.random(size * size + 1), add_noise=False)
    node = mcts.search(position, add_noise=bool(seed % 2))
    legal = np.flatnonzero(node.legal)
    assert fresh.puct_scores().tobytes() == _textbook_puct(fresh, c_puct).tobytes()
    for _ in range(10):
        scores = node.puct_scores()
        expected = _textbook_puct(node, c_puct)
        assert scores[legal].tobytes() == expected[legal].tobytes()
        assert np.all(np.isneginf(scores[~node.legal]))
        assert scores.argmax() == expected.argmax()
        # Perturb the statistics: more visits, in-flight losses, values.
        picks = rng.choice(legal, size=min(3, len(legal)), replace=False)
        node.child_N[picks] += rng.integers(0, 4, size=len(picks))
        node.child_VL[picks] = rng.integers(0, 3, size=len(picks))
        node.child_W[picks] += rng.normal(size=len(picks)) * node.child_N[picks]
        node._root_N = int(node.child_N.sum()) + 1
        node._root_VL = int(node.child_VL.sum())
