"""The benchmark's workloads, each driven through the program's public API.

A workload is built once by :meth:`setup` -- imports, construction and any
probing, everything up to the first hot-loop call -- and then runs one
*iteration* per :meth:`iterate` call, the unit the benchmark times.  Each
iteration returns an :class:`Outcome`: the work it did, the same work per
second of modelled (virtual) time, a digest of every deterministic output,
and the exact counts the per-layer split reports.  The program is a
deterministic simulation, so the same seed gives the same iteration bit for
bit and every iteration's digest must equal the first one's.

``size="tiny"`` shrinks every workload to a smoke-test scale.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, Tuple

import numpy as np

#: Per-layer counts a workload may report, with their units; a count a
#: workload does not exercise reads 0.
COUNTS: Dict[str, str] = {
    "minigo.leaf_rows": "count",
    "rollout.scheduler.steps": "count",
    "rollout.scheduler.serves": "count",
    "rollout.scheduler.heap_stale_pops": "count",
    "rollout.inference.engine_calls": "count",
    "rollout.inference.rows": "count",
    "rollout.inference.mean_batch_rows": "rows",
    "rollout.inference.cross_worker_share": "%",
    "profiler.write.events": "count",
    "profiler.write.operations": "count",
    "profiler.write.markers": "count",
    "tracedb.write.chunks_written": "count",
    "tracedb.write.bytes_written": "B",
    "tracedb.write.peak_buffered_records": "count",
    "tracedb.read.chunks_read": "count",
    "tracedb.read.records_decoded": "count",
    "serving.arrivals": "count",
    "serving.admitted": "count",
    "serving.shed": "count",
    "serving.retries": "count",
    "serving.serve_calls": "count",
    "serving.steady_p50_pct_of_deadline": "%",
    "serving.steady_p99_pct_of_deadline": "%",
}


class CheckFailed(AssertionError):
    """An output differs from the one it must reproduce."""


@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    ops: int                  #: units of work: moves, training steps or requests
    virtual_ops_per_s: float  #: useful work per second of modelled time
    digest: str               #: SHA-256 of every deterministic output
    counts: Dict[str, float] = field(default_factory=dict)


def digest(*parts: object) -> str:
    """SHA-256 of the parts' reprs (exact for floats, bytes and containers)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
    return sha.hexdigest()


def _inference_counts(stats) -> Dict[str, float]:
    return {
        "rollout.inference.engine_calls": stats.engine_calls,
        "rollout.inference.rows": stats.rows,
        "rollout.inference.mean_batch_rows": stats.mean_batch_rows,
        "rollout.inference.cross_worker_share": 100.0 * stats.cross_worker_share,
    }


# --------------------------------------------------------------------- selfplay
class SelfPlay:
    """Minigo self-play: a closed loop of workers sharing one inference service.

    Every worker waits for its own leaf evaluations, so the pool is a closed
    loop of ``num_workers`` virtual workers on the event-driven scheduler.
    """

    name = "selfplay"
    num_processes = None
    SIZES = {
        "full": dict(num_workers=8, board_size=9, num_simulations=16, max_moves=16,
                     hidden=(32, 32), leaf_batch=8),
        "tiny": dict(num_workers=2, board_size=5, num_simulations=4, max_moves=2,
                     hidden=(8,), leaf_batch=2),
    }

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        self.seed = seed
        self.config = dict(self.SIZES[size])

    def _pool(self, num_processes):
        from repro.minigo.workers import SelfPlayPool

        config = dict(self.config)
        workers = config.pop("num_workers")
        if num_processes is not None:
            config.update(num_processes=num_processes, process_backend="process")
        return SelfPlayPool(workers, games_per_worker=1, profile=True,
                            batched_inference=True, scheduler="event",
                            seed=self.seed, **config)

    def setup(self) -> None:
        self.pool = self._pool(self.num_processes)

    def iterate(self) -> Outcome:
        self.pool.run()
        return _selfplay_outcome(self.pool)

    def cross_check(self, reference: Outcome) -> None:
        """Single-process self-play has no second path to compare against."""


class SelfPlayTwoProcesses(SelfPlay):
    """The same pool sharded over two OS processes (``repro.parallel``)."""

    name = "selfplay_mp2"
    num_processes = 2

    def cross_check(self, reference: Outcome) -> None:
        single = self._pool(None)
        single.run()
        if _selfplay_outcome(single).digest != reference.digest:
            raise CheckFailed("the 2-process pool's records, clocks or scheduler "
                              "decisions differ from the single-process pool's")


def _selfplay_outcome(pool) -> Outcome:
    runs = pool.runs
    stats = pool.pool_scheduler.stats
    records = [[(ex.features.tobytes(), ex.policy_target.tobytes(), ex.value_target)
                for ex in run.result.examples] for run in runs]
    clocks = [run.total_time_us for run in runs]
    decisions = (stats.steps, stats.serves, stats.timeout_serves, stats.eager_serves,
                 sorted(stats.steps_per_worker.items()))
    moves = sum(run.result.moves for run in runs)
    service = pool.inference_service.stats
    traces = [run.trace for run in runs]
    counts = {
        "minigo.leaf_rows": service.rows,
        "rollout.scheduler.steps": stats.steps,
        "rollout.scheduler.serves": stats.serves,
        "rollout.scheduler.heap_stale_pops": stats.heap_stale_pops,
        "profiler.write.events": sum(len(trace.events) for trace in traces),
        "profiler.write.operations": sum(len(trace.operations) for trace in traces),
        "profiler.write.markers": sum(len(trace.markers) for trace in traces),
        **_inference_counts(service),
    }
    return Outcome(ops=moves,
                   virtual_ops_per_s=moves * 1e6 / pool.collection_span_us(),
                   digest=digest(records, clocks, decisions),
                   counts=counts)


# ---------------------------------------------------------------------- profile
class Profile:
    """RL-Scope's own use: profile TD3 on HalfCheetah into a store, then analyse it.

    The write phase trains under the full profiler and streams the trace
    into a TraceDB store; the read phase runs ``analyze_db`` on that store
    with ground-truth overhead calibration.  A closed single-agent loop.
    """

    name = "profile"
    ALGO = "TD3"
    SIMULATOR = "HalfCheetah"
    SIZES = {"full": dict(steps=72), "tiny": dict(steps=40)}

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        self.seed = seed
        self.steps = self.SIZES[size]["steps"]
        self.work_dir = work_dir
        self._built = None

    def _build(self, streaming: bool):
        from repro.profiler.api import Profiler, ProfilerConfig
        from repro.rl import STABLE_BASELINES, FrameworkAdapter, default_config, make_algorithm
        from repro.sim import make as make_env
        from repro.system import System

        store_dir = tempfile.mkdtemp(dir=self.work_dir) if streaming else None
        system = System.create(seed=self.seed)
        env = make_env(self.SIMULATOR, system, seed=self.seed)
        framework = FrameworkAdapter(system, STABLE_BASELINES)
        profiler = Profiler(system, ProfilerConfig.full(), trace_dir=store_dir,
                            streaming=streaming)
        profiler.attach(engine=framework.engine, envs=[env])
        agent = make_algorithm(self.ALGO, env, framework, config=default_config(self.ALGO),
                               profiler=profiler, seed=self.seed)
        return system, profiler, agent, store_dir

    def _calibration(self, system):
        from repro.profiler.calibration import CalibrationResult

        return CalibrationResult.from_ground_truth(system.cost_model.config)

    def setup(self) -> None:
        self._built = self._build(streaming=True)

    def iterate(self) -> Outcome:
        from repro.profiler.analysis import analyze_db
        from repro.tracedb.store import TraceDB

        system, profiler, agent, store_dir = self._built or self._build(streaming=True)
        self._built = None
        try:
            agent.train(self.steps)
            profiler.finalize()
            writer = profiler.store
            db = TraceDB(store_dir)
            analysis = analyze_db(db, calibration=self._calibration(system),
                                  iterations=self.steps)
            breakdown = _breakdown(analysis)
            trace = analysis.trace
            counts = {
                "profiler.write.events": len(trace.events),
                "profiler.write.operations": len(trace.operations),
                "profiler.write.markers": len(trace.markers),
                "tracedb.write.chunks_written": len(db.chunks()),
                "tracedb.write.bytes_written": writer.bytes_written(),
                "tracedb.write.peak_buffered_records": writer.peak_buffered_records(),
                "tracedb.read.chunks_read": db.chunks_loaded,
                "tracedb.read.records_decoded":
                    len(trace.events) + len(trace.operations) + len(trace.markers),
            }
            corrected_s = analysis.total_time_us() / 1e6
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return Outcome(ops=self.steps, virtual_ops_per_s=self.steps / corrected_s,
                       digest=digest(breakdown), counts=counts)

    def cross_check(self, reference: Outcome) -> None:
        from repro.profiler.analysis import analyze

        system, profiler, agent, _ = self._build(streaming=False)
        agent.train(self.steps)
        analysis = analyze(profiler.finalize(), calibration=self._calibration(system),
                           iterations=self.steps)
        if digest(_breakdown(analysis)) != reference.digest:
            raise CheckFailed("analyze_db on the store disagrees with in-memory "
                              "analyze of the same training run")


def _breakdown(analysis) -> Tuple:
    """The analysis' corrected category and resource breakdowns, key-sorted."""
    def ordered(table):
        return sorted((op, sorted(cells.items())) for op, cells in table.items())
    return ordered(analysis.category_breakdown_us()), ordered(analysis.resource_breakdown_us())


# ---------------------------------------------------------------------- serving
class Serving:
    """The networked inference tier under open-loop Poisson traffic.

    256 independent virtual clients send on a Poisson schedule regardless of
    replies (an open loop), first at half and then at twice the capacity
    measured by ``estimate_capacity_rows_per_sec``, against one replica with
    ``shed-newest`` admission and timeout-flushed batches.  Arrivals are in
    virtual time, so the generator never runs late.
    """

    name = "serving"
    PHASES = (("steady", 0.5), ("overload", 2.0))
    SIZES = {"full": dict(num_clients=256, horizon_us=30_000.0),
             "tiny": dict(num_clients=16, horizon_us=2_000.0)}

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        self.seed = seed
        self.size = dict(self.SIZES[size])

    def _network(self):
        from repro.minigo import PolicyValueNet

        return PolicyValueNet(self.kwargs["board_size"], hidden=self.kwargs["hidden"],
                              rng=np.random.default_rng(self.seed))

    def setup(self) -> None:
        from repro.experiments import DEFAULT_SERVE_KWARGS
        from repro.serving import estimate_capacity_rows_per_sec

        self.kwargs = DEFAULT_SERVE_KWARGS
        self.feature_dim = 3 * self.kwargs["board_size"] ** 2
        self.capacity = estimate_capacity_rows_per_sec(
            self._network, feature_dim=self.feature_dim,
            max_batch=self.kwargs["max_batch"], seed=self.seed)

    def iterate(self) -> Outcome:
        from repro.serving import (InferenceServer, LoadGenerator, PoissonProcess,
                                   build_slo_report, run_serving)

        kw = self.kwargs
        horizon_us = self.size["horizon_us"]
        deadline_us = kw["request_deadline_us"]
        reports, decisions, services = [], [], []
        for label, multiplier in self.PHASES:
            server = InferenceServer(
                self._network(), max_batch=kw["max_batch"],
                queue_capacity=kw["queue_capacity"], overload="shed-newest",
                flush_policy="timeout", flush_timeout_us=kw["flush_timeout_us"],
                rate_burst=kw["rate_burst"], seed=self.seed, name=f"serve_{label}")
            loadgen = LoadGenerator(
                PoissonProcess(multiplier * self.capacity), self.size["num_clients"],
                feature_dim=self.feature_dim, request_deadline_us=deadline_us,
                seed=self.seed)
            result = run_serving(server, loadgen, horizon_us)
            reports.append(build_slo_report(result, label=label))
            decisions.append(asdict(server.stats))
            services.append(server.service.stats)
        steady = reports[0]
        calls = sum(stats.engine_calls for stats in services)
        rows = sum(stats.rows for stats in services)
        cross = sum(stats.cross_worker_batches for stats in services)
        counts = {
            "serving.arrivals": sum(report.arrivals for report in reports),
            "serving.admitted": sum(report.admitted for report in reports),
            "serving.shed": sum(report.shed for report in reports),
            "serving.retries": sum(report.retries for report in reports),
            "serving.serve_calls": sum(report.serve_calls for report in reports),
            "serving.steady_p50_pct_of_deadline": 100.0 * steady.latency_us[50.0] / deadline_us,
            "serving.steady_p99_pct_of_deadline": 100.0 * steady.latency_us[99.0] / deadline_us,
            "rollout.inference.engine_calls": calls,
            "rollout.inference.rows": rows,
            "rollout.inference.mean_batch_rows": rows / calls,
            "rollout.inference.cross_worker_share": 100.0 * cross / calls,
        }
        on_time = sum(report.on_time for report in reports)
        return Outcome(ops=sum(report.requests for report in reports),
                       virtual_ops_per_s=on_time * 1e6 / (len(reports) * horizon_us),
                       digest=digest([report.format() for report in reports], decisions),
                       counts=counts)

    def cross_check(self, reference: Outcome) -> None:
        """Determinism across iterations is the serving tier's check."""


WORKLOADS = {cls.name: cls for cls in (SelfPlay, SelfPlayTwoProcesses, Profile, Serving)}
