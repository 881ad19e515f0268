"""Tests for the evaluation cache: LRU core, service cache, MCTS table.

Covers the ISSUE-9 cache stack bottom-up: the bounded LRU itself
(eviction order, recency, counters), the weight-versioned service cache
(submit-time hits, in-batch dedupe, staleness by key versioning, stats
roll-up), the MCTS transposition table (decision identity with the table
off, bitwise-identical rows for permuted move orders), and the explicit
rejection of the cache under multiprocess sharding.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import GraphEngine
from repro.hw.gpu import GPUDevice
from repro.minigo import MCTS, InferenceService, PolicyValueNet, SelfPlayPool
from repro.rollout import EnvRolloutPool
from repro.rollout.evalcache import CACHE_SCOPES, EvalCache
from repro.rollout.inference import InferenceStats
from repro.sim.go import GoPosition
from repro.system import System


BOARD = 5
NUM_MOVES = BOARD * BOARD + 1


def make_network(seed=7):
    return PolicyValueNet(BOARD, (16, 16), rng=np.random.default_rng(seed))


def make_client(service, *, worker, seed=0):
    system = System.create(seed=seed, device=GPUDevice(), worker=worker)
    engine = GraphEngine(system, flavor="tensorflow")
    return service.connect(system, engine, worker=worker)


def rowwise_evaluator(num_moves):
    """A per-row deterministic evaluator: output depends only on the row bytes.

    Computed row by row in Python, so results are bitwise identical no
    matter how rows are grouped into batches — the property the bitwise
    decision-identity assertions below rely on (a real matmul may differ by
    an ulp across batch shapes).
    """
    def evaluate(features):
        features = np.asarray(features)
        priors = np.empty((features.shape[0], num_moves), dtype=np.float32)
        values = np.empty(features.shape[0], dtype=np.float32)
        for i, row in enumerate(features):
            rng = np.random.default_rng(zlib.crc32(row.tobytes()))
            raw = rng.random(num_moves).astype(np.float32)
            priors[i] = raw / raw.sum()
            values[i] = np.float32(rng.random() * 2.0 - 1.0)
        return priors, values
    return evaluate


# -------------------------------------------------------------------- LRU
def test_lru_eviction_order_and_counters():
    cache = EvalCache(3)

    def row(v):
        return np.full(4, v, dtype=np.float32), float(v)

    assert cache.put(1, *row(1)) == 0
    assert cache.put(2, *row(2)) == 0
    assert cache.put(3, *row(3)) == 0
    assert cache.keys() == [1, 2, 3]

    # A hit refreshes recency; a peek does not.
    assert cache.get(1) is not None
    assert cache.keys() == [2, 3, 1]
    assert cache.peek(2) is not None
    assert cache.keys() == [2, 3, 1]

    # Inserting beyond capacity evicts the least-recently-used key (2, not
    # 1 — the get above saved it) and reports the eviction to the caller.
    assert cache.put(4, *row(4)) == 1
    assert cache.keys() == [3, 1, 4]
    assert 2 not in cache and 1 in cache

    # Refreshing an existing key moves it to MRU without evicting.
    assert cache.put(3, *row(33)) == 0
    assert cache.keys() == [1, 4, 3]
    assert cache.peek(3)[1] == 33.0

    assert cache.hits == 1 and cache.evictions == 1
    assert cache.get(99) is None
    assert cache.misses == 1
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0 and cache.keys() == []


def test_cache_validation_errors():
    with pytest.raises(ValueError):
        EvalCache(0)
    with pytest.raises(ValueError):
        InferenceService(make_network(), cache_capacity=0)
    with pytest.raises(ValueError, match="cache scope"):
        InferenceService(make_network(), cache_capacity=8, cache_scope="bogus")
    assert CACHE_SCOPES == ("shared", "replica")


# ---------------------------------------------------------- service cache
def test_submit_time_hit_skips_queue_and_is_bitwise_identical():
    service = InferenceService(make_network(), max_batch=16, cache_capacity=8)
    client = make_client(service, worker="a")
    position = GoPosition.initial(BOARD)
    features = position.features()[None, :]
    key = position.transposition_key()

    first = client.submit(features.copy(), metadata={"state_keys": [key]})
    assert not first.done
    service.serve_queued(policy="max-batch")
    priors_1, values_1 = first.result()

    # Same key again: answered at submit, never enters the queue.
    metadata = {"state_keys": [key]}
    second = client.submit(features.copy(), metadata=metadata)
    assert second.done
    assert service.pending_rows == 0 and service.pending_tickets == 0
    priors_2, values_2 = second.result()
    assert priors_2.tobytes() == priors_1.tobytes()
    assert values_2.tobytes() == values_1.tobytes()
    assert service.stats.cache_hits == 1
    assert metadata["cache_hits"] == 1
    assert service.stats.engine_calls == 1  # the hit ran no engine work


def test_weight_version_bump_makes_stale_hits_impossible():
    service = InferenceService(make_network(), max_batch=16, cache_capacity=8)
    client = make_client(service, worker="a")
    position = GoPosition.initial(BOARD)
    features = position.features()[None, :]
    key = position.transposition_key()

    client.submit(features.copy(), metadata={"state_keys": [key]})
    service.serve_queued(policy="max-batch")
    warm = client.submit(features.copy(), metadata={"state_keys": [key]})
    assert warm.done and service.stats.cache_hits == 1

    # New weights (bitwise-identical, so any stale hit would be silent):
    # the version bump alone must make the old entry unreachable.
    version = service.weight_version
    service.update_weights(service.network.state_dict(), charge=False)
    assert service.weight_version == version + 1

    cold = client.submit(features.copy(), metadata={"state_keys": [key]})
    assert not cold.done  # no stale hit — the old-version key is unreachable
    service.serve_queued(policy="max-batch")
    assert service.stats.cache_hits == 1  # unchanged: that was a real miss

    # The same position re-caches under the new version.
    rewarmed = client.submit(features.copy(), metadata={"state_keys": [key]})
    assert rewarmed.done and service.stats.cache_hits == 2


def test_in_batch_dedupe_fans_one_engine_row_out_to_all_riders():
    service = InferenceService(make_network(), max_batch=16, cache_capacity=8)
    client_a = make_client(service, worker="a")
    client_b = make_client(service, worker="b", seed=1)
    position = GoPosition.initial(BOARD)
    features = position.features()[None, :]
    key = position.transposition_key()

    ticket_a = client_a.submit(features.copy(), metadata={"state_keys": [key]})
    ticket_b = client_b.submit(features.copy(), metadata={"state_keys": [key]})
    assert not ticket_a.done and not ticket_b.done
    service.serve_queued(policy="max-batch")

    priors_a, values_a = ticket_a.result()
    priors_b, values_b = ticket_b.result()
    assert priors_a.tobytes() == priors_b.tobytes()
    assert values_a.tobytes() == values_b.tobytes()
    assert service.stats.dedupe_rows == 1  # b's row rode a's engine row


def test_merge_from_rolls_up_cache_counters():
    total = InferenceStats()
    total.cache_hits, total.dedupe_rows, total.cache_evictions = 3, 2, 1
    replica = InferenceStats()
    replica.cache_hits, replica.dedupe_rows, replica.cache_evictions = 10, 20, 30
    total.merge_from(replica)
    assert total.cache_hits == 13
    assert total.dedupe_rows == 22
    assert total.cache_evictions == 31


# ------------------------------------------------- network token registry
def test_recycled_network_id_never_aliases_cache_entries():
    """A new network at a collected network's address gets a fresh token.

    ``id()`` values are recycled by the allocator, so the registry must
    trust an entry only while its weak reference still points at the same
    network — a recycled address silently reading another model's cached
    rows was the ISSUE-10 satellite bug.
    """
    service = InferenceService(make_network(), max_batch=16, cache_capacity=8)
    net_a, net_b = make_network(seed=1), make_network(seed=2)
    token_a = service._network_token(net_a)
    token_b = service._network_token(net_b)
    assert token_a != token_b

    # Simulate the allocator recycling net_a's address for net_b: the stale
    # registry entry indexes net_b's id() but its weakref points at net_a.
    service._net_tokens[id(net_b)] = service._net_tokens.pop(id(net_a))
    assert service._network_token(net_b) != token_a, \
        "a recycled id() must never inherit another network's cache token"

    # Tokens are stable across repeated lookups of the live network.
    assert service._network_token(net_b) == service._network_token(net_b)


def test_collected_network_purges_registry_without_evicting_successor():
    import gc
    import weakref

    service = InferenceService(make_network(), max_batch=16, cache_capacity=8)
    net = make_network(seed=3)
    addr = id(net)
    service._network_token(net)
    assert addr in service._net_tokens

    del net
    gc.collect()
    assert addr not in service._net_tokens, \
        "a collected network must free its registry slot"

    # The purge callback is token-guarded: if a successor claims the same
    # address before the old network's callback fires, the callback must
    # not evict it.  Capture the *product's* purge closure off the weakref,
    # install a successor entry at the same address, then fire the stale
    # callback by hand.
    old = make_network(seed=4)
    old_token = service._network_token(old)
    old_ref = service._net_tokens[id(old)][1]
    stale_purge = old_ref.__callback__

    successor = make_network(seed=5)
    entry = (old_token + 1, weakref.ref(successor))
    service._net_tokens[id(old)] = entry
    stale_purge(old_ref)
    assert service._net_tokens[id(old)] == entry, \
        "a stale purge callback must not evict the successor's entry"


# -------------------------------------------------- multiprocess rejection
def test_selfplay_pool_rejects_multiprocess_cache():
    with pytest.raises(ValueError, match="cannot be combined with the service evaluation"):
        SelfPlayPool(2, board_size=5, num_simulations=2, games_per_worker=1,
                     batched_inference=True, scheduler="event", leaf_batch=2,
                     cache_capacity=16, num_processes=2, process_backend="inline")


def test_env_pool_rejects_multiprocess_cache():
    with pytest.raises(ValueError, match="cannot be combined with the service evaluation"):
        EnvRolloutPool("Pong", num_workers=2, steps_per_worker=2,
                       cache_capacity=16, num_processes=2,
                       process_backend="inline")


# ------------------------------------------------- MCTS transposition table
TT_BOARD = 3  # small enough that 64 simulations revisit positions in-tree
TT_MOVES = TT_BOARD * TT_BOARD + 1


def _search_signature(transposition, *, leaf_batch):
    mcts = MCTS(rowwise_evaluator(TT_MOVES), num_simulations=64,
                leaf_batch=leaf_batch, rng=np.random.default_rng(5),
                transposition=transposition)
    root = mcts.search(GoPosition.initial(TT_BOARD), add_noise=False)
    policy = mcts.policy_from_visits(root, temperature=1.0)
    move = mcts.choose_move(root, temperature=1e-6)
    return policy.tobytes(), move, mcts.transposition_hits


@pytest.mark.parametrize("leaf_batch", [1, 4])
def test_transposition_table_is_decision_identical(leaf_batch):
    """The table changes where rows come from, never what the search decides."""
    policy_off, move_off, hits_off = _search_signature(False, leaf_batch=leaf_batch)
    policy_on, move_on, hits_on = _search_signature(True, leaf_batch=leaf_batch)
    assert hits_off == 0
    assert hits_on > 0  # the table actually short-circuited re-evaluations
    assert policy_on == policy_off
    assert move_on == move_off


# ------------------------------------------- permuted move orders (property)
def _orthogonally_adjacent(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _pairwise_non_adjacent(points):
    return all(not _orthogonally_adjacent(points[i], points[j])
               for i in range(len(points)) for j in range(i + 1, len(points)))


_POINTS = st.lists(
    st.tuples(st.integers(0, BOARD - 1), st.integers(0, BOARD - 1)),
    min_size=4, max_size=4, unique=True).filter(_pairwise_non_adjacent)


@given(points=_POINTS)
@settings(max_examples=25, deadline=None)
def test_permuted_move_orders_share_cache_rows_bitwise(points):
    """Positions reached via permuted move orders hit the same cache entry.

    Non-adjacent stones never capture, so playing the two black moves (and
    the two white moves) in either order reaches the same position; its
    incremental Zobrist key must be path-independent, and the cached
    (priors, value) row answered for the permuted order must be bitwise
    identical to the row the engine produced for the original order.
    """
    black_1, black_2, white_1, white_2 = points
    start = GoPosition.initial(BOARD)

    def reach(moves):
        position = start
        for move in moves:
            position = position.play(move)
        return position

    via_a = reach([black_1, white_1, black_2, white_2])
    via_b = reach([black_2, white_2, black_1, white_1])
    assert via_a.transposition_key() == via_b.transposition_key()
    assert via_a.features().tobytes() == via_b.features().tobytes()

    evaluate = rowwise_evaluator(NUM_MOVES)
    service = InferenceService(make_network(), max_batch=16, cache_capacity=32,
                               forward=lambda network, features: evaluate(features))
    client = make_client(service, worker="a")

    first = client.submit(via_a.features()[None, :],
                          metadata={"state_keys": [via_a.transposition_key()]})
    service.serve_queued(policy="max-batch")
    priors_a, values_a = first.result()

    second = client.submit(via_b.features()[None, :],
                           metadata={"state_keys": [via_b.transposition_key()]})
    assert second.done  # the permuted order was answered from cache at submit
    priors_b, values_b = second.result()
    assert priors_b.tobytes() == priors_a.tobytes()
    assert values_b.tobytes() == values_a.tobytes()
    assert service.stats.engine_calls == 1
