"""Cache sweep: engine work saved by the evaluation cache, on/off across a grid.

ISSUE 9's evaluation cache spans three layers — the per-search MCTS
transposition table, the service-side weight-versioned LRU with in-batch
dedupe, and admission-time hits in the serving tier.  This sweep measures
the middle layer where the engine calls actually disappear: for every
(workers x replicas x evaluation games) cell it runs one full Minigo
training round twice from identical weights — cache off (the bit-for-bit
baseline) and cache on — and reports the engine work each phase avoided:

* **self-play** — the pinned wall-clock pool shape: hot openings repeat
  across workers, so the save shows up as fewer *engine calls* (rows shaved
  off a wave rarely delete the wave, but whole cached waves delete calls);
* **evaluation** — all games now run concurrently under one scheduler
  (games alternate colors with period 2, and noise-free argmax play makes
  game N replay game N-2 exactly), so the save shows up as *engine rows*:
  with 4 games, roughly half the round's rows are answered from cache.

The candidate's win count must be identical on/off in every cell — the
cache returns bitwise-equal rows, so it cannot change a game — and the
sweep marks each cell accordingly (``benchmarks/test_bench_cache.py``
asserts it, plus the reduction floors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..minigo.training import MinigoConfig, MinigoTraining
from .sweep import SweepResult

#: Grid and round shape shared by every cell (and by the quick CI smoke).
DEFAULT_CACHE_KWARGS = dict(
    worker_counts=(4, 8),
    replica_counts=(1, 2),
    evaluation_games=(2, 4),
    board_size=5,
    num_simulations=8,
    games_per_worker=1,
    max_moves=8,
    hidden=(16,),
    leaf_batch=4,
    sgd_steps=2,
    cache_capacity=4096,
    transposition=True,
    seed=0,
)


@dataclass
class CacheSweepPoint:
    """One (workers, replicas, evaluation games) cell, cache off vs on."""

    num_workers: int
    num_replicas: int
    evaluation_games: int
    # Self-play phase (the shared batched service).
    selfplay_calls_off: int
    selfplay_calls_on: int
    selfplay_rows_off: int
    selfplay_rows_on: int
    selfplay_cache_hits: int
    selfplay_dedupe_rows: int
    # Evaluation phase (concurrent games, one service).
    eval_calls_off: int
    eval_calls_on: int
    eval_rows_off: int
    eval_rows_on: int
    eval_cache_hits: int
    eval_dedupe_rows: int
    # Outcome parity: cached rows are bitwise-equal, so wins must match.
    wins_off: int
    wins_on: int

    @property
    def selfplay_call_reduction(self) -> float:
        return self.selfplay_calls_off / max(self.selfplay_calls_on, 1)

    @property
    def selfplay_row_reduction(self) -> float:
        return self.selfplay_rows_off / max(self.selfplay_rows_on, 1)

    @property
    def eval_call_reduction(self) -> float:
        return self.eval_calls_off / max(self.eval_calls_on, 1)

    @property
    def eval_row_reduction(self) -> float:
        return self.eval_rows_off / max(self.eval_rows_on, 1)

    @property
    def wins_match(self) -> bool:
        return self.wins_off == self.wins_on


class CacheSweepResult(SweepResult):
    """Both runs of a cell start from bit-identical initial weights (a fresh
    :class:`~repro.minigo.training.MinigoTraining` each, same seed), so any
    divergence in win counts would be a real correctness bug, not drift."""

    defaults = DEFAULT_CACHE_KWARGS
    axes = (("num_workers", "worker_counts"), ("num_replicas", "replica_counts"),
            ("evaluation_games", "evaluation_games"))
    point_type = CacheSweepPoint
    columns = (
        ("work", 4, "{p.num_workers:d}"),
        ("repl", 4, "{p.num_replicas:d}"),
        ("games", 5, "{p.evaluation_games:d}"),
        ("selfplay calls", 16, "{p.selfplay_calls_off:>7d} ->{p.selfplay_calls_on:>6d}"),
        ("red", 6, "{p.selfplay_call_reduction:.2f}x"),
        ("eval rows", 14, "{p.eval_rows_off:>6d} ->{p.eval_rows_on:>5d}"),
        ("red", 6, "{p.eval_row_reduction:.2f}x"),
        ("hits", 5, "{p.eval_cache_hits:d}"),
        ("dedupe", 6, "{p.eval_dedupe_rows:d}"),
        ("wins", 7, lambda r, p: f"{p.wins_off}={p.wins_on}" + (" ok" if p.wins_match else " !!")),
    )

    def setup(self) -> None:
        if any(v <= 0 for key in ("worker_counts", "replica_counts", "evaluation_games")
               for v in self.config[key]) or self.cache_capacity <= 0:
            raise ValueError("worker_counts, replica_counts, evaluation_games and "
                             "cache_capacity must be positive")

    def _round(self, num_workers: int, num_replicas: int, games: int, cache: bool):
        shape = {key: self.config[key] for key in (
            "board_size", "num_simulations", "games_per_worker", "max_moves", "hidden",
            "sgd_steps", "leaf_batch", "seed")}
        return MinigoTraining(MinigoConfig(
            num_workers=num_workers, evaluation_games=games, num_replicas=num_replicas,
            profile=False, batched_inference=True, scheduler="event",
            transposition=self.transposition if cache else False,
            cache_capacity=self.cache_capacity if cache else None, **shape)).run_round()

    def cell(self, num_workers: int, num_replicas: int, evaluation_games: int) -> Dict[str, Any]:
        off = self._round(num_workers, num_replicas, evaluation_games, cache=False)
        on = self._round(num_workers, num_replicas, evaluation_games, cache=True)
        measured = dict(wins_off=off.candidate_wins, wins_on=on.candidate_wins)
        for phase, attr in (("selfplay", "selfplay_inference_stats"),
                            ("eval", "evaluation_inference_stats")):
            stats_off, stats_on = getattr(off, attr), getattr(on, attr)
            measured.update({
                f"{phase}_calls_off": stats_off.engine_calls,
                f"{phase}_calls_on": stats_on.engine_calls,
                f"{phase}_rows_off": stats_off.rows,
                f"{phase}_rows_on": stats_on.rows,
                f"{phase}_cache_hits": stats_on.cache_hits,
                f"{phase}_dedupe_rows": stats_on.dedupe_rows,
            })
        return measured

    def title(self):
        return [
            "Cache sweep: evaluation cache off vs on, identical seeds and weights",
            f"board={self.board_size}, sims={self.num_simulations}, "
            f"leaf_batch={self.leaf_batch}, max_moves={self.max_moves}, "
            f"capacity={self.cache_capacity}, "
            f"transposition={'on' if self.transposition else 'off'}"]

    def footer(self):
        return [
            "note: self-play saves whole engine calls (cached waves never "
            "depart); the concurrent evaluation round saves engine rows — "
            "with games alternating colors at period 2, game N's argmax play "
            "replays game N-2 and its rows are answered from cache"]


run_cache_sweep = CacheSweepResult.run
