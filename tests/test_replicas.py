"""Tests for the sharded inference service: replicas, routing, broadcasts."""

import numpy as np
import pytest

from repro.backend import GraphEngine
from repro.hw.costmodel import CostModelConfig
from repro.hw.gpu import GPUDevice
from repro.minigo import (
    InferenceService,
    InferenceStats,
    LeastLoadedRouting,
    MinigoConfig,
    MinigoTraining,
    PolicyValueNet,
    RoundRobinRouting,
    SelfPlayPool,
    StickyRouting,
    make_routing_policy,
)
from repro.profiler import multi_process_summary
from repro.system import System

BOARD = 5
NUM_MOVES = BOARD * BOARD + 1

POOL_KWARGS = dict(board_size=BOARD, num_simulations=6, games_per_worker=1,
                   max_moves=8, hidden=(16, 16), seed=3)


def make_network(seed=7):
    return PolicyValueNet(BOARD, (16, 16), rng=np.random.default_rng(seed))


def make_client(service, device, *, worker, seed=0, stream=0):
    system = System.create(seed=seed, device=device, worker=worker)
    system.cuda.default_stream = stream
    engine = GraphEngine(system, flavor="tensorflow")
    return service.connect(system, engine, worker=worker)


def serve_now(client, features):
    """Submit one request and serve the queue at once; returns its rows."""
    ticket = client.submit(features)
    client.service.serve_queued(policy="max-batch")
    return ticket.result()


def _game_records(pool):
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


# ---------------------------------------------------------------- routing
def test_routing_policy_factory_and_validation():
    assert isinstance(make_routing_policy("round-robin"), RoundRobinRouting)
    assert isinstance(make_routing_policy("least-loaded"), LeastLoadedRouting)
    assert isinstance(make_routing_policy("sticky"), StickyRouting)
    policy = LeastLoadedRouting()
    assert make_routing_policy(policy) is policy   # instances pass through
    with pytest.raises(ValueError):
        make_routing_policy("bogus")
    with pytest.raises(ValueError):
        InferenceService(make_network(), num_replicas=0)
    with pytest.raises(ValueError):
        SelfPlayPool(2, batched_inference=True, num_replicas=0, **POOL_KWARGS)
    with pytest.raises(ValueError):
        SelfPlayPool(2, batched_inference=True, routing="bogus", **POOL_KWARGS)
    with pytest.raises(ValueError):
        # There is no service to shard without batched inference.
        SelfPlayPool(2, num_replicas=2, **POOL_KWARGS)


def test_round_robin_cycles_and_least_loaded_picks_earliest_free():
    service = InferenceService(make_network(), num_replicas=3)
    replicas = service.replicas
    rr = RoundRobinRouting()
    assert [rr.choose(replicas, host_worker="w").index for _ in range(5)] == [0, 1, 2, 0, 1]
    assert rr.decisions == {0: 2, 1: 2, 2: 1}

    ll = LeastLoadedRouting()
    replicas[0].free_us = 300.0
    replicas[1].free_us = 100.0
    replicas[2].free_us = 100.0
    # Earliest-free wins; ties break toward the lowest index.
    assert ll.choose(replicas, host_worker="w").index == 1
    replicas[1].free_us = 500.0
    assert ll.choose(replicas, host_worker="w").index == 2


def test_reused_routing_policy_instance_is_reset_per_service():
    """A policy object reused across services must not carry stale state."""
    policy = StickyRouting()
    first = InferenceService(make_network(), num_replicas=2, routing=policy)
    policy.choose(first.replicas, host_worker="a")
    policy.choose(first.replicas, host_worker="b")
    assert policy.assignments and policy.decisions
    # Adopting the same instance in a new service starts from scratch, so
    # two identical runs route identically and routed counts match calls.
    second = InferenceService(make_network(), num_replicas=2, routing=policy)
    assert second.routing is policy
    assert policy.assignments == {} and policy.decisions == {}
    assert policy.choose(second.replicas, host_worker="z").index == 0


def test_sticky_routing_pins_each_host_to_one_replica():
    service = InferenceService(make_network(), num_replicas=2, routing="sticky")
    replicas = service.replicas
    sticky = service.routing
    first = [sticky.choose(replicas, host_worker=w).index for w in ("a", "b", "c")]
    assert first == [0, 1, 0]          # new hosts assigned round-robin
    again = [sticky.choose(replicas, host_worker=w).index for w in ("c", "a", "b")]
    assert again == [0, 0, 1]          # existing hosts keep their replica
    assert sticky.assignments == {"a": 0, "b": 1, "c": 0}


# ------------------------------------------------------------ service-level
def test_unpinned_service_keeps_kernels_on_the_client_device():
    """Without a primary device, replica 0 executes on each host's own GPU.

    The pre-sharding behaviour of a directly constructed service: inference
    kernels must stay visible on the client's device, not vanish onto a
    hidden internal replica device."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8)
    assert not service.replicas[0].pinned
    client = make_client(service, device, worker="w")
    serve_now(client, np.random.default_rng(0).normal(size=(2, 75)).astype(np.float32))
    assert device.kernels(), "inference kernels must land on the client's device"
    assert not service.replicas[0].device.kernels()
    # With a primary device, replica 0 is pinned to it (and replicas beyond
    # the first are always pinned to their own fresh device).
    pinned = InferenceService(make_network(), num_replicas=2, primary_device=device)
    assert pinned.replicas[0].pinned and pinned.replicas[0].device is device
    assert pinned.replicas[1].pinned


def test_replicas_have_private_devices_and_results_match_solo():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=4, num_replicas=2,
                               primary_device=device)
    assert service.replicas[0].device is device          # replica 0 shares the pool GPU
    assert service.replicas[1].device is not device      # replica 1 brings its own
    assert service.replicas[1].device.name != device.name

    client = make_client(service, device, worker="w")
    features = np.random.default_rng(2).normal(size=(10, 75)).astype(np.float32)
    priors, values = serve_now(client, features)
    assert priors.shape == (10, NUM_MOVES) and values.shape == (10,)
    assert service.stats.engine_calls == 3               # 4 + 4 + 2 rows
    # Round-robin fanned the three chunks across both replicas.
    assert service.routing_decisions() == [2, 1]
    assert [r.stats.engine_calls for r in service.replicas] == [2, 1]
    # Kernels landed on the chosen replica's device.
    assert device.kernels()
    assert service.replicas[1].device.kernels()

    solo = InferenceService(make_network(), max_batch=64)
    solo_client = make_client(solo, GPUDevice(), worker="solo")
    solo_priors, solo_values = serve_now(solo_client, features[:4])
    np.testing.assert_allclose(priors[:4], solo_priors, atol=1e-6)
    np.testing.assert_allclose(values[:4], solo_values, atol=1e-6)


def test_rolled_up_stats_match_the_live_aggregate():
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=4, num_replicas=3,
                               routing="least-loaded")
    a = make_client(service, device, worker="a", stream=0)
    b = make_client(service, device, worker="b", seed=1, stream=1)
    rng = np.random.default_rng(4)
    a.submit(rng.normal(size=(6, 75)).astype(np.float32))
    b.system.clock.advance(25.0)
    b.submit(rng.normal(size=(5, 75)).astype(np.float32))
    service.serve_queued(policy="max-batch")

    rollup = service.rolled_up_stats()
    live = service.stats
    assert rollup.engine_calls == live.engine_calls
    assert rollup.rows == live.rows == 11
    assert rollup.cross_worker_batches == live.cross_worker_batches
    assert rollup.rows_by_worker == live.rows_by_worker
    assert rollup.queued_waits == live.queued_waits
    assert rollup.queue_delay_us == pytest.approx(live.queue_delay_us)
    assert rollup.batch_sizes.count == live.batch_sizes.count
    assert rollup.batch_sizes.total_rows == live.batch_sizes.total_rows
    assert rollup.requests == live.requests   # all tickets served


def test_batch_arriving_while_every_replica_is_busy_waits_for_a_horizon():
    """Timeout-policy edge under sharding: all replicas busy at departure."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8, num_replicas=2,
                               routing="least-loaded")
    service.replicas[0].free_us = 40_000.0
    service.replicas[1].free_us = 30_000.0
    client = make_client(service, device, worker="w")
    ticket = client.submit(np.random.default_rng(0).normal(size=(2, 75)).astype(np.float32))

    calls = service.serve_queued(policy="timeout", timeout_us=100.0)
    assert calls == 1 and ticket.done
    # Least-loaded sent the batch to the replica freeing earliest; it still
    # could not start before that horizon, and the wait is charged as delay.
    assert service.routing_decisions() == [0, 1]
    assert client.system.clock.now_us >= 30_000.0
    assert service.stats.max_queue_delay_us >= 30_000.0 - 1e-6
    assert service.replicas[1].free_us >= 30_000.0
    assert service.replicas[0].free_us == 40_000.0   # untouched horizon


def test_timeout_deadline_exactly_at_earliest_pending_arrival():
    """A cutoff equal to the oldest arrival serves that request (inclusive)."""
    device = GPUDevice()
    service = InferenceService(make_network(), max_batch=8, num_replicas=2)
    client = make_client(service, device, worker="w")
    client.system.clock.advance(1_234.0)
    ticket = client.submit(np.random.default_rng(1).normal(size=(2, 75)).astype(np.float32))
    arrival = service.earliest_pending_arrival_us()
    assert arrival == pytest.approx(1_234.0)

    # Cutoff strictly before the arrival holds the ticket...
    assert service.serve_queued(policy="timeout", timeout_us=0.0,
                                arrival_cutoff_us=arrival - 1e-6) == 0
    assert not ticket.done and service.pending_tickets == 1
    # ...a cutoff exactly at the arrival (deadline == arrival + 0) serves it,
    # departing at the deadline itself.
    assert service.serve_queued(policy="timeout", timeout_us=0.0,
                                arrival_cutoff_us=arrival) == 1
    assert ticket.done
    assert service.stats.queued_waits == 1
    assert service.stats.max_queue_delay_us == pytest.approx(0.0)


def test_update_weights_broadcasts_to_every_replica():
    service = InferenceService(make_network(seed=7), num_replicas=3)
    device = GPUDevice()
    client = make_client(service, device, worker="w")
    features = np.random.default_rng(3).normal(size=(1, 75)).astype(np.float32)
    before, _ = serve_now(client, features)

    new_weights = make_network(seed=99).state_dict()
    horizons = [replica.free_us for replica in service.replicas]
    span = service.update_weights(new_weights)
    assert span > 0.0
    for replica, old in zip(service.replicas, horizons):
        assert replica.free_us > old                  # cannot serve mid-copy
        assert replica.stats.weight_broadcasts == 1
        assert replica.stats.weight_broadcast_us > 0.0
    assert service.stats.weight_broadcasts == 1
    assert service.stats.weight_broadcast_us == pytest.approx(span)

    after, _ = serve_now(client, features)
    assert not np.allclose(before, after), "new weights must actually load"

    # charge=False is placement only: no horizon movement, no stats.
    uncharged = InferenceService(make_network(seed=7), num_replicas=2)
    assert uncharged.update_weights(new_weights, charge=False) == 0.0
    assert all(replica.free_us == 0.0 for replica in uncharged.replicas)
    assert uncharged.stats.weight_broadcasts == 0


# ------------------------------------------------- empty-service guards
def test_empty_service_stats_are_zero_division_safe():
    stats = InferenceStats()
    assert stats.mean_batch_rows == 0.0
    assert stats.mean_occupancy == 0.0
    assert stats.mean_queue_delay_us == 0.0
    assert stats.cross_worker_share == 0.0
    assert stats.calls_saved == 0

    service = InferenceService(make_network(), max_batch=8, num_replicas=2)
    assert service.serve_queued(policy="max-batch") == 0
    assert service.earliest_pending_arrival_us() is None
    for source in (service.stats, service.rolled_up_stats(),
                   *[replica.stats for replica in service.replicas]):
        assert source.engine_calls == 0
        assert source.mean_occupancy == 0.0
        assert source.mean_queue_delay_us == 0.0
        assert source.cross_worker_share == 0.0
    assert service.replica_utilisation(0.0) == [0.0, 0.0]
    assert service.replica_utilisation(1_000.0) == [0.0, 0.0]
    assert service.routing_decisions() == [0, 0]
    # A capacity-less stats object never divides by its zero capacity.
    assert InferenceStats(rows=8, engine_calls=2).mean_occupancy == 0.0


# --------------------------------------------------- pool-level determinism
@pytest.mark.parametrize("routing", ["round-robin", "least-loaded", "sticky"])
def test_single_replica_any_routing_is_bitwise_identical(routing):
    """The sharding acceptance bar: num_replicas=1 reproduces PR 3 exactly."""
    baseline = SelfPlayPool(3, profile=True, batched_inference=True, leaf_batch=4,
                            scheduler="event", **POOL_KWARGS)
    baseline.run()
    sharded = SelfPlayPool(3, profile=True, batched_inference=True, leaf_batch=4,
                           scheduler="event", num_replicas=1, routing=routing,
                           **POOL_KWARGS)
    sharded.run()

    assert _game_records(sharded) == _game_records(baseline)
    assert [run.total_time_us for run in sharded.runs] == \
        [run.total_time_us for run in baseline.runs]
    assert multi_process_summary(sharded.traces()) == multi_process_summary(baseline.traces())
    # All the work really went through replica 0.
    assert sharded.inference_service.routing_decisions() == \
        [sharded.inference_service.stats.engine_calls]
    assert sharded.pool_scheduler.stats.eager_serves == 0


def test_two_replicas_shorten_the_span_on_an_inference_bound_pool():
    cost_config = CostModelConfig(python_op_us=0.001)
    kwargs = dict(board_size=BOARD, num_simulations=16, games_per_worker=1,
                  max_moves=6, hidden=(16, 16), seed=0, profile=False,
                  cost_config=cost_config, batched_inference=True, leaf_batch=8,
                  inference_max_batch=8, scheduler="event")
    single = SelfPlayPool(4, num_replicas=1, **kwargs)
    single.run()
    sharded = SelfPlayPool(4, num_replicas=2, **kwargs)
    sharded.run()

    assert sharded.collection_span_us() < single.collection_span_us()
    service = sharded.inference_service
    assert all(replica.stats.engine_calls > 0 for replica in service.replicas)
    assert sum(service.routing_decisions()) == service.stats.engine_calls
    assert sharded.pool_scheduler.stats.eager_serves > 0, \
        "full batches must be served eagerly while other workers still run"
    span = sharded.collection_span_us()
    assert all(0.0 < util <= 1.0 for util in service.replica_utilisation(span))
    rollup = service.rolled_up_stats()
    assert rollup.engine_calls == service.stats.engine_calls
    assert rollup.rows == service.stats.rows


def test_training_round_threads_replicas_and_broadcasts_weights():
    config = MinigoConfig(num_workers=3, board_size=BOARD, num_simulations=4,
                          games_per_worker=1, max_moves=6, sgd_steps=2,
                          evaluation_games=1, hidden=(16, 16), seed=0,
                          batched_inference=True, leaf_batch=4,
                          scheduler="event", num_replicas=2, routing="least-loaded")
    result = MinigoTraining(config).run_round()

    assert result.selfplay_replica_stats is not None
    assert len(result.selfplay_replica_stats) == 2
    assert sum(rs.engine_calls for rs in result.selfplay_replica_stats) == \
        result.selfplay_inference_stats.engine_calls
    # The accepted-or-not weights were broadcast to both replicas.
    assert result.weight_broadcast_us > 0.0
    # The evaluation phase shares the replica/routing configuration.
    assert result.evaluation_inference_stats is not None
    assert result.evaluation_inference_stats.engine_calls > 0

    # Without batched inference there is nothing to shard or broadcast.
    legacy = MinigoTraining(MinigoConfig(num_workers=1, board_size=BOARD,
                                         num_simulations=2, games_per_worker=1,
                                         max_moves=4, sgd_steps=1, evaluation_games=1,
                                         hidden=(8, 8), seed=0)).run_round()
    assert legacy.selfplay_replica_stats is None
    assert legacy.weight_broadcast_us == 0.0
