"""Tests for the Minigo scale-up workload: MCTS, self-play, training round."""

import numpy as np
import pytest

from oracles.event_trace import resolved
from repro.backend import GraphEngine, use_engine
from repro.hw.nvidia_smi import sample_utilization
from repro.minigo import (
    MCTS,
    MinigoConfig,
    MinigoTraining,
    PolicyValueNet,
    SelfPlayPool,
    SelfPlayWorker,
)
from repro.minigo.selfplay import OP_EXPAND_LEAF, OP_TREE_SEARCH
from repro.profiler import Profiler, ProfilerConfig, multi_process_summary
from repro.sim.go import GoPosition
from repro.system import System


def uniform_evaluator(num_moves):
    def evaluate(features):
        batch = features.shape[0]
        priors = np.full((batch, num_moves), 1.0 / num_moves, dtype=np.float32)
        values = np.zeros(batch, dtype=np.float32)
        return priors, values
    return evaluate


# ----------------------------------------------------------------------- MCTS
def test_mcts_visit_counts_sum_to_num_simulations():
    position = GoPosition.initial(size=5)
    mcts = MCTS(uniform_evaluator(26), num_simulations=20, rng=np.random.default_rng(0))
    root = mcts.search(position)
    assert root.visit_count == 20  # one backup per simulation
    assert sum(child.visit_count for child in root.children.values()) == 20
    policy = mcts.policy_from_visits(root)
    assert policy.shape == (26,)
    assert policy.sum() == pytest.approx(1.0)
    move = mcts.choose_move(root, temperature=1e-6)
    assert move is None or (0 <= move[0] < 5 and 0 <= move[1] < 5)


def test_mcts_prefers_winning_move():
    """With a value function that likes captures, MCTS should visit legal moves unevenly."""
    position = GoPosition.initial(size=5)

    def biased_evaluator(features):
        batch = features.shape[0]
        priors = np.zeros((batch, 26), dtype=np.float32)
        priors[:, 12] = 1.0  # strong prior on the centre point
        values = np.zeros(batch, dtype=np.float32)
        return priors, values

    mcts = MCTS(biased_evaluator, num_simulations=30, exploration_fraction=0.0,
                rng=np.random.default_rng(0))
    root = mcts.search(position, add_noise=False)
    centre_visits = root.children[12].visit_count
    assert centre_visits == max(child.visit_count for child in root.children.values())


def test_mcts_rejects_bad_configuration():
    with pytest.raises(ValueError):
        MCTS(uniform_evaluator(26), num_simulations=0)


def test_mcts_backup_alternates_sign():
    position = GoPosition.initial(size=5)
    def hopeful_evaluator(features):
        priors, _ = uniform_evaluator(26)(features)
        return priors, np.full(features.shape[0], 0.25, dtype=np.float32)

    mcts = MCTS(hopeful_evaluator, num_simulations=5, rng=np.random.default_rng(1))
    root = mcts.search(position, add_noise=False)
    assert root.total_value != 0.0
    # Values propagated from children are negated relative to the child's own perspective.
    for child in root.children.values():
        if child.visit_count > 0:
            assert np.isfinite(child.mean_value)
            assert child.mean_value == child.total_value / child.visit_count
    assert root.total_value == pytest.approx(
        -sum(child.total_value for child in root.children.values()))


# ------------------------------------------------------------------- selfplay
def test_selfplay_worker_generates_examples_and_operations():
    system = System.create(seed=0)
    engine = GraphEngine(system)
    profiler = Profiler(system, ProfilerConfig.full())
    profiler.attach(engine=engine)
    network = PolicyValueNet(board_size=5, hidden=(32, 32), rng=np.random.default_rng(0))
    worker = SelfPlayWorker(system, engine, network, profiler=profiler, board_size=5,
                            num_simulations=4, max_moves=10, seed=0)
    result = worker.play_games(1)
    trace = profiler.finalize()
    assert result.games == 1
    assert 0 < result.moves <= 10
    assert len(result.examples) == result.moves
    for example in result.examples:
        assert example.features.shape == (75,)
        assert example.policy_target.shape == (26,)
        assert example.value_target in (-1.0, 1.0)
    op_names = {name for name, *_ in resolved(trace)[1]}
    assert {OP_TREE_SEARCH, OP_EXPAND_LEAF} <= op_names


def test_policy_value_net_shapes(system):
    engine = GraphEngine(system)
    with use_engine(engine):
        net = PolicyValueNet(board_size=5, hidden=(16, 16), rng=np.random.default_rng(0))
        from repro.backend.tensor import Tensor
        logits, value = net(Tensor(np.zeros((3, 75), dtype=np.float32)))
    assert logits.shape == (3, 26)
    assert value.shape == (3, 1)
    assert net.num_parameters() > 0


# ----------------------------------------------------------------------- pool
def test_selfplay_pool_shares_one_device():
    pool = SelfPlayPool(num_workers=3, board_size=5, num_simulations=3, games_per_worker=1,
                        max_moves=6, hidden=(16, 16), seed=0)
    runs = pool.run()
    assert len(runs) == 3
    workers_on_device = {activity.worker for activity in pool.device.activity}
    assert workers_on_device == {run.worker for run in runs}
    streams = {activity.stream for activity in pool.device.kernels()}
    assert len(streams) == 3  # one stream (CUDA context) per worker
    assert pool.collection_span_us() > 0
    assert len(pool.all_examples()) > 0


def test_selfplay_pool_rerun_starts_on_an_idle_device():
    """A rerun restarts the worker clocks at zero, so its device timeline
    must restart too: the same kernels at the same virtual times."""
    pool = SelfPlayPool(num_workers=2, board_size=5, num_simulations=3, games_per_worker=1,
                        max_moves=4, hidden=(8,), seed=0, batched_inference=True,
                        leaf_batch=2, scheduler="event")
    pool.run()
    first = pool.device.activity
    pool.run()
    assert first and pool.device.activity == first


def test_minigo_round_produces_figure8_quantities():
    config = MinigoConfig(num_workers=3, board_size=5, num_simulations=3, games_per_worker=1,
                          max_moves=6, sgd_steps=4, evaluation_games=1, hidden=(16, 16), seed=0)
    training = MinigoTraining(config)
    round_result = training.run_round()

    traces = round_result.traces()
    assert len(traces) == 5  # 3 self-play workers + trainer + evaluation
    summaries = multi_process_summary(traces)
    selfplay = [s for s in summaries if s.worker.startswith("selfplay")]
    assert len(selfplay) == 3
    for summary in selfplay:
        assert summary.gpu_time_us < 0.5 * summary.total_time_us
        assert summary.total_time_us > 0

    util = round_result.utilization(sample_period_us=round_result.worker_runs[0].total_time_us / 10)
    assert 0.0 <= util.reported_utilization_pct <= 100.0
    assert util.true_busy_pct <= util.reported_utilization_pct + 1e-6
    assert round_result.losses, "SGD phase should record losses"
    assert np.isfinite(round_result.losses).all()
    assert round_result.evaluation_games == 1


def test_minigo_candidate_acceptance_updates_weights():
    config = MinigoConfig(num_workers=1, board_size=5, num_simulations=2, games_per_worker=1,
                          max_moves=4, sgd_steps=2, evaluation_games=1, hidden=(8, 8), seed=0,
                          acceptance_threshold=0.0)
    training = MinigoTraining(config)
    before = [w.copy() for w in training.current_weights]
    result = training.run_round()
    assert result.candidate_accepted  # threshold 0 accepts any candidate
    changed = any(not np.allclose(a, b) for a, b in zip(before, training.current_weights))
    assert changed


def test_ucb_selection_is_minimax_correct():
    """The parent must prefer children whose own-perspective value is low.

    total_value is stored from each node's own to-play perspective (backup
    flips sign per ply), so selection has to negate it: a child position
    that is good for the *opponent* (its to_play) must score below one that
    is bad for the opponent.  A sign inversion here makes self-play pile
    visits onto losing moves.
    """
    from repro.minigo.mcts import MCTSNode

    position = GoPosition.initial(size=5)
    mcts = MCTS(uniform_evaluator(26), rng=np.random.default_rng(0))
    parent = MCTSNode(position=position)
    priors = np.zeros(26)
    winning, losing = 6, 18  # opponent_winning / opponent_losing children
    priors[[winning, losing]] = 0.5
    mcts._expand_with_priors(parent, priors, add_noise=False)
    parent._root_N = 4
    parent.child_N[[winning, losing]] = 2
    parent.child_W[winning] = 2.0
    parent.child_W[losing] = -2.0
    scores = parent.puct_scores()
    assert scores[losing] > scores[winning]
    # Virtual loss makes an in-flight child strictly less attractive.
    before = scores[losing]
    parent.child_VL[losing] = 1
    assert parent.puct_scores()[losing] < before


def test_released_search_tree_is_freed_without_the_cycle_collector():
    """Children point at their parents, so a finished tree is a reference
    cycle; ``MCTS.release`` (called when a self-play move commits) breaks
    it, and the tree's arrays are freed the moment the root is dropped."""
    import gc
    import weakref

    mcts = MCTS(uniform_evaluator(26), num_simulations=16, leaf_batch=4,
                rng=np.random.default_rng(0))
    gc.disable()
    try:
        root = mcts.search(GoPosition.initial(size=5))
        arrays = [weakref.ref(child.child_N) for child in root.children.values()
                  if child.child_N is not None]
        assert arrays
        MCTS.release(root)
        del root
        assert all(ref() is None for ref in arrays)
    finally:
        gc.enable()


# ------------------------------------------------------- concurrent evaluation
def _evaluation_wins(*, evaluation_games, batched, cache=False):
    kwargs = {}
    if batched:
        kwargs.update(leaf_batch=1, scheduler="event")
    if cache:
        kwargs.update(transposition=True, cache_capacity=256)
    config = MinigoConfig(num_workers=2, board_size=5, num_simulations=3,
                          games_per_worker=1, max_moves=6, sgd_steps=2,
                          evaluation_games=evaluation_games, hidden=(8, 8),
                          seed=0, profile=False, batched_inference=batched,
                          **kwargs)
    return MinigoTraining(config).run_round().candidate_wins


@pytest.mark.parametrize("evaluation_games,expected_wins",
                         [(1, 0), (2, 1), (4, 2)])
def test_concurrent_evaluation_pins_sequential_win_statistics(
        evaluation_games, expected_wins):
    """All evaluation games now run concurrently under one scheduler; the
    win statistics must be exactly those of the old one-game-at-a-time
    loop (expected values pinned from the sequential implementation).
    Evaluation plays noise-free argmax moves, so neither the interleaving
    nor the evaluation cache may change a single game's outcome.
    """
    assert _evaluation_wins(evaluation_games=evaluation_games,
                            batched=False) == expected_wins
    assert _evaluation_wins(evaluation_games=evaluation_games,
                            batched=True) == expected_wins
    assert _evaluation_wins(evaluation_games=evaluation_games,
                            batched=True, cache=True) == expected_wins


# ------------------------------------------------------------- one config
ROUND = dict(num_workers=3, board_size=5, num_simulations=4, games_per_worker=1,
             max_moves=6, sgd_steps=2, evaluation_games=2, hidden=(8, 8),
             batched_inference=True, scheduler="event", leaf_batch=2)


def test_every_pool_field_of_a_round_reaches_its_pool_and_evaluation_service(
        monkeypatch, tmp_path):
    """A round builds its self-play pool from the config's ``PoolConfig``
    fields (its own store in place of ``trace_dir``) and its evaluation
    service from the same fields."""
    from dataclasses import fields, replace

    from repro.hw.costmodel import CostModelConfig
    from repro.minigo import training as training_mod
    from repro.rollout import PoolConfig

    config = MinigoConfig(**ROUND, seed=3, routing="sticky", num_replicas=2,
                          flush_policy="timeout", flush_timeout_us=40.0,
                          inference_max_batch=4, cache_capacity=64,
                          cost_config=CostModelConfig(python_op_us=1.1),
                          trace_dir=str(tmp_path), chunk_events=500)
    pools, services = [], []
    run = SelfPlayPool.run
    monkeypatch.setattr(SelfPlayPool, "run",
                        lambda pool, weights=None: pools.append(pool) or run(pool, weights))
    build = training_mod.new_service
    monkeypatch.setattr(training_mod, "new_service",
                        lambda *args, **kwargs: services.append(build(*args, **kwargs))
                        or services[-1])
    MinigoTraining(config).run_round()

    (pool,), (service,) = pools, services
    pool_part = PoolConfig(**{f.name: getattr(config, f.name) for f in fields(PoolConfig)})
    assert type(pool.config) is PoolConfig
    assert pool.config == replace(pool_part, trace_dir=None)
    assert pool.store.chunk_events == 500
    assert all(run.system.cost_model.config is config.cost_config for run in pool.runs)
    assert (service.name, service.max_batch, service.num_replicas, service.routing.name,
            service.cache_capacity) == ("evaluation_inference", 4, 2, "sticky", 64)
    assert all(replica.system.cost_model.config is config.cost_config
               for replica in service.replicas)


def _round_signature(result):
    runs = [(run.worker, run.total_time_us, run.result.moves,
             [(e.features.tobytes(), e.policy_target.tobytes(), e.value_target)
              for e in run.result.examples])
            for run in result.worker_runs]
    return runs, result.losses, result.candidate_wins


def test_a_round_sharded_over_processes_reproduces_the_single_process_round():
    config = MinigoConfig(**ROUND, seed=5, profile=False)
    sharded = MinigoConfig(**ROUND, seed=5, profile=False, num_processes=2,
                           process_backend="inline")
    assert _round_signature(MinigoTraining(sharded).run_round()) == \
        _round_signature(MinigoTraining(config).run_round())
