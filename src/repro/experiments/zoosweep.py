"""Zoo sweep: every sim x algorithm pair through the batched rollout stack.

The Minigo pool (PRs 2-5) demonstrated cross-worker inference batching for
one workload.  The stepwise-driver refactor made that machinery
env-agnostic, and this sweep is its proof obligation: a grid over
**simulators x algorithm families x worker counts x replica counts** in
which every cell routes per-step policy evaluation through the shared
:class:`~repro.rollout.inference.InferenceService`.

Each cell runs twice with identical seeds:

* **batched** — ``FLUSH_MAX_BATCH``: the pool scheduler coalesces the
  pending steps of many workers into shared engine calls;
* **unbatched control** — ``FLUSH_UNBATCHED``: every policy evaluation is
  its own engine call, the serial per-step regime of the classic
  collection loop.

The headline per-cell numbers are the *cross-worker batch share* (fraction
of served batches spanning >1 worker) and the *engine-call reduction*
(unbatched calls / batched calls) — both must exceed their floors for the
batched stack to be doing real work, which ``tests/test_zoosweep.py``
pins.  Cells whose algorithm family cannot act in the sim's action space
(DQN on continuous control, DDPG on discrete) are recorded as skipped
rather than silently dropped.

Everything is a pure function of ``seed``: the report is byte-identical
across runs of the same configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from ..rl.zoo import ZOO_ALGORITHMS, make_zoo_pool
from ..rollout.inference import FLUSH_MAX_BATCH, FLUSH_UNBATCHED
from ..sim import registry
from ..system import System
from .sweep import SweepResult

#: Simulators the default sweep grids over (>= 3 non-Go per the roadmap;
#: Go rides along as the discrete board-game workload, exercised by DQN/PPO
#: and skipped by continuous-control families).
DEFAULT_ZOO_SIMS = ("Pong", "Hopper", "Walker2D", "HalfCheetah", "Go")
#: Algorithm families swept (keys of ``repro.rl.zoo.ZOO_ALGORITHMS``).
DEFAULT_ZOO_ALGOS = ("DQN", "PPO", "DDPG")

#: The default grid.  With ``trace_dir`` set, every batched cell streams its
#: full profiler trace into ``trace_dir/<sim>_<algo>_w<workers>_r<replicas>``
#: (a :class:`~repro.tracedb.store.TraceDB` per cell).
DEFAULT_ZOO_KWARGS = dict(
    sims=DEFAULT_ZOO_SIMS,
    algorithms=DEFAULT_ZOO_ALGOS,
    worker_counts=(4, 8),
    replica_counts=(1, 2),
    steps_per_worker=8,
    seed=0,
    trace_dir=None,
)


@dataclass
class ZooSweepPoint:
    """One (sim, algorithm, workers, replicas) cell: batched vs unbatched."""

    sim: str
    algorithm: str
    num_workers: int
    num_replicas: int
    steps: int                    #: env transitions collected (batched run)
    engine_calls: int             #: batched service calls
    rows: int                     #: policy evaluations served
    cross_worker_share: float     #: fraction of batches spanning >1 worker
    unbatched_engine_calls: int   #: control: one call per evaluation
    collection_span_us: float     #: batched virtual span (slowest worker)
    unbatched_span_us: float      #: control virtual span

    @property
    def mean_batch(self) -> float:
        return self.rows / self.engine_calls if self.engine_calls else 0.0

    @property
    def engine_call_reduction(self) -> float:
        """How many serial engine calls one batched call replaces."""
        return (self.unbatched_engine_calls / self.engine_calls
                if self.engine_calls else 0.0)

    @property
    def span_speedup(self) -> float:
        return (self.unbatched_span_us / self.collection_span_us
                if self.collection_span_us else 0.0)


class ZooSweepResult(SweepResult):
    """Run the workload zoo over the (sim, algorithm, workers, replicas) grid."""

    defaults = DEFAULT_ZOO_KWARGS
    axes = (("sim", "sims"), ("algorithm", "algorithms"),
            ("num_workers", "worker_counts"), ("num_replicas", "replica_counts"))
    point_type = ZooSweepPoint
    columns = (
        ("sim", 12, "{p.sim}"),
        ("algo", 5, "{p.algorithm}"),
        ("wrk", 4, "{p.num_workers:d}"),
        ("repl", 4, "{p.num_replicas:d}"),
        ("steps", 6, "{p.steps:d}"),
        ("calls", 6, "{p.engine_calls:d}"),
        ("serial", 6, "{p.unbatched_engine_calls:d}"),
        ("reduction", 9, "{p.engine_call_reduction:.1f}x"),
        ("xworker%", 8, "{p.cross_worker_share:.1%}"),
        ("batch", 6, "{p.mean_batch:.1f}"),
        ("span us", 10, "{p.collection_span_us:.1f}"),
        ("speedup", 7, "{p.span_speedup:.2f}x"),
    )

    @property
    def skipped(self) -> List[Tuple[str, str, str]]:
        """``(sim, algorithm, reason)`` of every pair that cannot run."""
        return list(dict.fromkeys((coords["sim"], coords["algorithm"], reason)
                                  for coords, reason in self.skips))

    def setup(self) -> None:
        unknown = [a for a in self.algorithms if a not in ZOO_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown zoo algorithms {unknown}; "
                             f"available: {sorted(ZOO_ALGORITHMS)}")
        if any(w <= 0 for w in self.worker_counts) or any(
                r <= 0 for r in self.replica_counts):
            raise ValueError("worker and replica counts must be positive")
        self.config["discrete"] = {
            sim: registry.make(sim, System.create(seed=0), seed=0).is_discrete
            for sim in self.sims}

    def cell(self, sim: str, algorithm: str, num_workers: int,
             num_replicas: int) -> Union[str, Dict[str, Any]]:
        spec = ZOO_ALGORITHMS[algorithm]
        discrete = self.discrete[sim]
        if not (spec.supports_discrete if discrete else spec.supports_continuous):
            space = "discrete" if discrete else "continuous"
            return f"{algorithm} does not act in {space} action spaces"
        cell_trace = None if self.trace_dir is None else os.path.join(
            self.trace_dir, f"{sim}_{algorithm}_w{num_workers}_r{num_replicas}")
        batched = make_zoo_pool(
            sim, algorithm, num_workers, steps_per_worker=self.steps_per_worker,
            num_replicas=num_replicas, flush_policy=FLUSH_MAX_BATCH, seed=self.seed,
            profile=cell_trace is not None, trace_dir=cell_trace)
        batched.run()
        control = make_zoo_pool(
            sim, algorithm, num_workers, steps_per_worker=self.steps_per_worker,
            num_replicas=num_replicas, flush_policy=FLUSH_UNBATCHED, seed=self.seed)
        control.run()
        stats = batched.inference_service.stats
        return dict(steps=batched.total_steps(), engine_calls=stats.engine_calls,
                    rows=stats.rows, cross_worker_share=stats.cross_worker_share,
                    unbatched_engine_calls=control.inference_service.stats.engine_calls,
                    collection_span_us=batched.collection_span_us(),
                    unbatched_span_us=control.collection_span_us())

    def title(self):
        return [
            f"Zoo sweep: {len(self.points)} cells over "
            f"{len(self.sims)} sims x {len(self.algorithms)} algorithm families, "
            f"workers={list(self.worker_counts)}, replicas={list(self.replica_counts)}, "
            f"{self.steps_per_worker} steps/worker (seed {self.seed})",
            "every cell routes per-step policy evaluation through the shared "
            "batched InferenceService; 'serial' is the unbatched control "
            "(one engine call per evaluation), 'reduction' = serial / calls"]

    def footer(self):
        return [f"{sim:>12} {algorithm:>5} {'skipped':>51} ({reason})"
                for sim, algorithm, reason in self.skipped]


run_zoo_sweep = ZooSweepResult.run
