"""Benchmark: engine work saved by the evaluation cache, with hard floors.

ISSUE 9's cache spans three layers; this benchmark pins the measured wins of
each on pinned workloads, plus the correctness bars that make the wins safe:

* **Self-play** — the pinned 8-worker / ``leaf_batch=8`` event-scheduler
  pool (the wall-clock bench's shape) with the service cache armed must
  issue **>= 1.3x fewer engine calls** than cache-off, with game records
  bit-for-bit identical (cached rows are bitwise-equal, so play cannot
  change).
* **Concurrent evaluation** — a 4-game evaluation round (games alternate
  colors with period 2, so noise-free argmax play makes games 3 and 4
  replay games 1 and 2) must evaluate **>= 2x fewer engine rows** than
  cache-off, with the candidate's win count identical.
* **Serving admission** — at 2x measured overload on a keyed workload, the
  admission cache must cut the shed rate at identical offered load, and the
  decision log (cache-hit lines included) must replay line-identically
  under one seed.

Outputs:

* the rendered cache-sweep table, printed (the committed ``results/cache_sweep.txt``
  is the full grid, and only ``rls-experiment cachesweep`` writes it);
* a ``cache`` block in the untracked bench record ``BENCH_wallclock.json``,
  written by ``benchmarks/record.py`` (whose CI check fails when the block is
  missing or stale).

Set ``CACHE_QUICK=1`` (the CI smoke step does) for smaller workloads with
the same assertions.
"""

from __future__ import annotations

import os

import numpy as np

from record import record
from repro.experiments import DEFAULT_SERVE_KWARGS, run_cache_sweep, run_serve_sweep
from repro.minigo import PolicyValueNet
from repro.minigo.training import MinigoConfig, MinigoTraining
from repro.minigo.workers import SelfPlayPool
from repro.serving import (
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    build_slo_report,
    estimate_capacity_rows_per_sec,
    run_serving,
)

QUICK = os.environ.get("CACHE_QUICK") == "1"
SEED = 0

#: The pinned self-play shape (the wall-clock bench's run) and its floor.
SELFPLAY_KWARGS = dict(
    board_size=9,
    num_simulations=16,
    games_per_worker=1,
    max_moves=6 if QUICK else 12,
    hidden=(32, 32),
    seed=SEED,
    profile=False,
    batched_inference=True,
    leaf_batch=8,
    scheduler="event",
)
SELFPLAY_WORKERS = 8
MIN_SELFPLAY_CALL_REDUCTION = 1.3

#: The pinned concurrent evaluation round and its floor.
EVAL_GAMES = 4
EVAL_CONFIG_KWARGS = dict(
    num_workers=2,
    board_size=5,
    num_simulations=8,
    games_per_worker=1,
    max_moves=4 if QUICK else 8,
    hidden=(16,),
    sgd_steps=2,
    evaluation_games=EVAL_GAMES,
    profile=False,
    seed=SEED,
    batched_inference=True,
    leaf_batch=8,
    scheduler="event",
)
MIN_EVAL_ROW_REDUCTION = 2.0

CACHE_CAPACITY = 4096

#: Serving scenario: 2x overload, keyed workload, admission cache on vs off.
SERVE_MULTIPLIER = 2.0
SERVE_CLIENTS = 256
SERVE_KEY_SPACE = 64
SERVE_CACHE_CAPACITY = 256
SERVE_HORIZON_US = 10_000.0 if QUICK else DEFAULT_SERVE_KWARGS["horizon_us"]


def _run_selfplay(cache: bool):
    kwargs = dict(SELFPLAY_KWARGS)
    if cache:
        kwargs.update(cache_capacity=CACHE_CAPACITY, transposition=True)
    pool = SelfPlayPool(SELFPLAY_WORKERS, **kwargs)
    pool.run()
    return pool


def _game_records(pool):
    return [
        [(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
         for ex in run.result.examples]
        for run in pool.runs
    ]


def _run_eval_round(cache: bool):
    kwargs = dict(EVAL_CONFIG_KWARGS)
    if cache:
        kwargs.update(cache_capacity=CACHE_CAPACITY, transposition=True)
    return MinigoTraining(MinigoConfig(**kwargs)).run_round()


def _serving_run(cache: bool, *, keep_log: bool):
    """One 2x-overload keyed run; same seed => identical offered load."""
    board = DEFAULT_SERVE_KWARGS["board_size"]
    feature_dim = 3 * board * board

    def make_network():
        return PolicyValueNet(board, hidden=DEFAULT_SERVE_KWARGS["hidden"],
                              rng=np.random.default_rng(SEED))

    capacity = estimate_capacity_rows_per_sec(
        make_network, feature_dim=feature_dim,
        max_batch=DEFAULT_SERVE_KWARGS["max_batch"], seed=SEED)
    server = InferenceServer(
        make_network(),
        max_batch=DEFAULT_SERVE_KWARGS["max_batch"],
        queue_capacity=DEFAULT_SERVE_KWARGS["queue_capacity"],
        overload="shed-newest",
        flush_policy="timeout",
        flush_timeout_us=DEFAULT_SERVE_KWARGS["flush_timeout_us"],
        seed=SEED,
        keep_decision_log=keep_log,
        cache_capacity=SERVE_CACHE_CAPACITY if cache else None)
    loadgen = LoadGenerator(
        PoissonProcess(SERVE_MULTIPLIER * capacity), SERVE_CLIENTS,
        feature_dim=feature_dim,
        request_deadline_us=DEFAULT_SERVE_KWARGS["request_deadline_us"],
        key_space=SERVE_KEY_SPACE, seed=SEED)
    result = run_serving(server, loadgen, SERVE_HORIZON_US)
    slo = build_slo_report(result, label="cache" if cache else "control")
    return server, slo


def test_bench_cache(benchmark):
    # --- self-play: the pinned 8-worker pool, cache off vs on.
    off_pool = benchmark.pedantic(lambda: _run_selfplay(False),
                                  rounds=1, iterations=1)
    on_pool = _run_selfplay(True)
    assert _game_records(on_pool) == _game_records(off_pool), \
        "cached rows are bitwise-equal: self-play records must not change"
    sp_off, sp_on = off_pool.inference_service.stats, on_pool.inference_service.stats
    assert sp_on.cache_hits + sp_on.dedupe_rows > 0, \
        "the pinned pool must actually exercise the cache"
    call_reduction = sp_off.engine_calls / max(sp_on.engine_calls, 1)
    assert call_reduction >= MIN_SELFPLAY_CALL_REDUCTION, (
        f"expected >= {MIN_SELFPLAY_CALL_REDUCTION}x engine-call reduction on the "
        f"{SELFPLAY_WORKERS}-worker/leaf_batch={SELFPLAY_KWARGS['leaf_batch']} "
        f"self-play run, got {call_reduction:.2f}x "
        f"({sp_off.engine_calls} -> {sp_on.engine_calls} calls)")

    # --- evaluation: the pinned 4-game concurrent round, cache off vs on.
    eval_off = _run_eval_round(False)
    eval_on = _run_eval_round(True)
    assert eval_on.candidate_wins == eval_off.candidate_wins, \
        "the cache must not change evaluation outcomes"
    ev_off = eval_off.evaluation_inference_stats
    ev_on = eval_on.evaluation_inference_stats
    row_reduction = ev_off.rows / max(ev_on.rows, 1)
    assert row_reduction >= MIN_EVAL_ROW_REDUCTION, (
        f"expected >= {MIN_EVAL_ROW_REDUCTION}x engine-row reduction on the "
        f"{EVAL_GAMES}-game concurrent evaluation round, got {row_reduction:.2f}x "
        f"({ev_off.rows} -> {ev_on.rows} rows)")

    # --- serving: 2x overload, keyed workload; admission hits cut shedding.
    _, slo_off = _serving_run(False, keep_log=False)
    _, slo_on = _serving_run(True, keep_log=False)
    assert slo_on.requests == slo_off.requests, \
        "cache on/off must face identical offered load (same seed, same keys)"
    assert slo_on.cache_hit_fraction > 0.0
    assert slo_off.cache_hits == 0
    assert slo_on.shed_fraction < slo_off.shed_fraction, (
        f"admission cache hits must reduce the shed rate at "
        f"{SERVE_MULTIPLIER}x overload: off {slo_off.shed_fraction:.4f} vs "
        f"on {slo_on.shed_fraction:.4f}")

    # --- determinism: the decision log, cache-hit lines included, replays
    # line-identically under one seed.
    server_a, _ = _serving_run(True, keep_log=True)
    server_b, _ = _serving_run(True, keep_log=True)
    log_a, log_b = server_a.decision_log_lines(), server_b.decision_log_lines()
    assert log_a == log_b, \
        "the cache-enabled decision log must replay exactly under one seed"
    assert any(" cache-hit " in line for line in log_a), \
        "the logged run must actually answer requests at admission"

    # --- the sweep table (the CLI artifact, regenerated here too).
    sweep = run_cache_sweep(seed=SEED, **(
        dict(worker_counts=(2,), replica_counts=(1,), evaluation_games=(2,),
             max_moves=4) if QUICK else {}))
    assert all(p.wins_match for p in sweep.points), \
        "every sweep cell must keep win counts identical cache off vs on"

    # --- the bench record's cache block.
    record("cache", {
        "quick": QUICK,
        "selfplay": {
            "workers": SELFPLAY_WORKERS,
            "leaf_batch": SELFPLAY_KWARGS["leaf_batch"],
            "board_size": SELFPLAY_KWARGS["board_size"],
            "max_moves": SELFPLAY_KWARGS["max_moves"],
            "engine_calls_off": sp_off.engine_calls,
            "engine_calls_on": sp_on.engine_calls,
            "call_reduction": call_reduction,
            "rows_off": sp_off.rows,
            "rows_on": sp_on.rows,
            "cache_hits": sp_on.cache_hits,
            "dedupe_rows": sp_on.dedupe_rows,
            "min_call_reduction_bar": MIN_SELFPLAY_CALL_REDUCTION,
        },
        "evaluation": {
            "games": EVAL_GAMES,
            "board_size": EVAL_CONFIG_KWARGS["board_size"],
            "max_moves": EVAL_CONFIG_KWARGS["max_moves"],
            "leaf_batch": EVAL_CONFIG_KWARGS["leaf_batch"],
            "rows_off": ev_off.rows,
            "rows_on": ev_on.rows,
            "row_reduction": row_reduction,
            "engine_calls_off": ev_off.engine_calls,
            "engine_calls_on": ev_on.engine_calls,
            "cache_hits": ev_on.cache_hits,
            "dedupe_rows": ev_on.dedupe_rows,
            "wins": eval_on.candidate_wins,
            "min_row_reduction_bar": MIN_EVAL_ROW_REDUCTION,
        },
        "serving": {
            "overload_multiplier": SERVE_MULTIPLIER,
            "clients": SERVE_CLIENTS,
            "key_space": SERVE_KEY_SPACE,
            "cache_capacity": SERVE_CACHE_CAPACITY,
            "horizon_us": SERVE_HORIZON_US,
            "shed_fraction_off": slo_off.shed_fraction,
            "shed_fraction_on": slo_on.shed_fraction,
            "cache_hit_fraction": slo_on.cache_hit_fraction,
            "goodput_off_per_sec": slo_off.goodput_per_sec,
            "goodput_on_per_sec": slo_on.goodput_per_sec,
        },
    })

    report = sweep.report()
    print()
    print(report)
    print()
    print(f"selfplay engine calls {sp_off.engine_calls} -> {sp_on.engine_calls} "
          f"({call_reduction:.2f}x, bar {MIN_SELFPLAY_CALL_REDUCTION}x); "
          f"eval rows {ev_off.rows} -> {ev_on.rows} "
          f"({row_reduction:.2f}x, bar {MIN_EVAL_ROW_REDUCTION}x); "
          f"serving shed {slo_off.shed_fraction:.4f} -> {slo_on.shed_fraction:.4f} "
          f"at {SERVE_MULTIPLIER}x (hit rate {slo_on.cache_hit_fraction:.4f})")
