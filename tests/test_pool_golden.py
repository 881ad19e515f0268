"""Golden digests of the worker pools' deterministic outputs.

``SelfPlayPool`` and ``EnvRolloutPool`` share one pool core (validation,
trace-store lifecycle, scheduler run loop and the multiprocess path).  These
digests were recorded before that core was factored out, so any change to
how the pools are built or run must leave all of them byte-identical:

* for a small event-scheduled Minigo pool and for Pong and HalfCheetah env
  pools, single-process and sharded over two inline processes: the bytes of
  the streamed trace store, every worker's final clock and the scheduler's
  ``(steps, serves)`` counters.  The two modes write different store bytes
  (shards close their own writers), so each mode has its own digest;
* the stdout of the ``batchsweep``, ``schedsweep`` and ``replicasweep``
  Minigo sweeps at small grids;
* the quick ``zoosweep`` report (a CI step re-checks the file the CLI writes
  against :data:`ZOOSWEEP_QUICK_SHA256`);
* one small CLI run per pool-sweep flag that the runs above leave unread
  (``--routing``, ``--flush-policy``, ``--timeout-us``, ``--sims``,
  ``--algos`` and ``--trace-dir``), digests recorded before the sweeps
  moved onto one runner;
* two ``fig8`` runs through its pool flags, digests recorded before those
  flags became :class:`~repro.minigo.MinigoConfig` fields.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.minigo.workers import SelfPlayPool
from repro.rollout.pool import EnvRolloutPool

#: SHA-256 of one pool run (see :func:`pool_run_digest`), keyed by
#: ``(workload, num_processes)``.
POOL_RUN_SHA256 = {
    ("selfplay", None): "6b96e73daa3756718d5cebf7e8a01b7147d4cea0a302958f30d428eb363dc28e",
    ("selfplay", 2): "341c00ca86f3a251e48b2ed894aa9b458c7ba3d3e5cb06c7964e64a2ea0d3c73",
    ("Pong", None): "fd728372ec4aa008447ad8719030c8000a5c0333b9ca7f2595bda18493564399",
    ("Pong", 2): "3b77177cf0f6b2328b27e28fb02dbdec53771849932312c6eb0debdbf069f4f3",
    ("HalfCheetah", None): "8691165f97787f500b063125ed1e81ac87e576d1e1fe55622357747d10eeebb6",
    ("HalfCheetah", 2): "f74919e9d086a679fd2a644df5c016a6b8df054580570cf18662434371836c1f",
}
#: SHA-256 of the stdout of each small Minigo sweep.
SWEEP_STDOUT_SHA256 = {
    "batchsweep": "609f43e251095d8b9edf47c9ba869174dae69c161693e49297e3677e6c1bdb4a",
    "schedsweep": "4b90a2b62f4f25be4121fc31173bc8f9fd176021744a923626116576eada6270",
    "replicasweep": "554df33a36181d1319660ddf86a92cb15a149cfdf0e5295180bd29d47ce2def1",
}
SWEEP_ARGV = {
    "batchsweep": ["batchsweep", "--leaf-batches", "1,4"],
    "schedsweep": ["schedsweep", "--workers", "4", "--leaf-batches", "1,4"],
    "replicasweep": ["replicasweep", "--replicas", "1,2", "--workers", "4",
                     "--routing", "least-loaded"],
}
#: SHA-256 of the file ``zoosweep --quick --out FILE`` writes (its stdout).
ZOOSWEEP_QUICK_SHA256 = (
    "1c0687cef9518221ebdd86c97f2cd803516f894148d7992e0e01977d81ebf008")
#: SHA-256 of the stdout of one small run per otherwise unpinned flag.
FLAG_STDOUT_SHA256 = {
    "schedsweep-routing-flush":
        "8cb6163cc9c1af312841fe12be68ded138a18f34393b86000a00788f738970d0",
    "replicasweep-routing-flush":
        "6877074e4cb57c16c4678ad6785124fa21d03488f8feb478544eb36dbf654e06",
    "fig8-event-replicas":
        "64bc9ce4da067530080fc4fa8b123ac52d35d1a3fd79a9042092c34550a1cd36",
    "fig8-event-timeout-sticky":
        "7cc9a88e5fda44d467ae4704a12146cc20d2b8decf5e03b82abc1e53b3ae9cea",
}
FLAG_ARGV = {
    "schedsweep-routing-flush": ["schedsweep", "--workers", "2", "--leaf-batches", "2",
                                 "--replicas", "2", "--routing", "least-loaded",
                                 "--flush-policy", "timeout", "--timeout-us", "500"],
    "replicasweep-routing-flush": ["replicasweep", "--replicas", "2", "--workers", "2",
                                   "--routing", "sticky", "--flush-policy", "max-batch",
                                   "--leaf-batches", "4"],
    "fig8-event-replicas": ["fig8", "--scheduler", "event", "--replicas", "2"],
    "fig8-event-timeout-sticky": ["fig8", "--scheduler", "event", "--flush-policy", "timeout",
                                  "--timeout-us", "500", "--routing", "sticky"],
}
#: SHA-256 of the ``zoosweep --sims --algos --trace-dir`` report followed by
#: every file of the trace stores it writes (see :func:`tree_digest`).
ZOOSWEEP_TRACE_DIR_SHA256 = (
    "e70fe67160e84834da0efa81ade655939ee2447194e1fb6d4fee8f64ccc8ef5b")


def _build_pool(workload: str, num_processes, trace_dir: Path):
    parallel = {} if num_processes is None else dict(num_processes=num_processes,
                                                     process_backend="inline")
    if workload == "selfplay":
        return SelfPlayPool(3, board_size=5, num_simulations=4, max_moves=6, hidden=(8,),
                            batched_inference=True, scheduler="event", leaf_batch=2,
                            seed=1, trace_dir=str(trace_dir), **parallel)
    return EnvRolloutPool(workload, 3, steps_per_worker=6, profile=True, seed=1,
                          trace_dir=str(trace_dir), **parallel)


def tree_digest(sha, root: Path) -> None:
    """Feed every file under ``root`` (relative path, then bytes) to ``sha``."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(path.relative_to(root).as_posix().encode("utf-8"))
        sha.update(path.read_bytes())


def pool_run_digest(workload: str, num_processes, trace_dir: Path) -> str:
    """Run one pool into ``trace_dir``; digest its store, clocks and counters."""
    pool = _build_pool(workload, num_processes, trace_dir)
    pool.run()
    sha = hashlib.sha256()
    for path in sorted(trace_dir.iterdir()):
        sha.update(path.name.encode("utf-8"))
        sha.update(path.read_bytes())
    sha.update(repr([run.total_time_us for run in pool.runs]).encode("utf-8"))
    stats = pool.pool_scheduler.stats
    sha.update(repr((stats.steps, stats.serves)).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("workload,num_processes", sorted(POOL_RUN_SHA256, key=repr))
def test_pool_run_is_golden(tmp_path, workload, num_processes):
    digest = pool_run_digest(workload, num_processes, tmp_path / "store")
    assert digest == POOL_RUN_SHA256[(workload, num_processes)]


@pytest.mark.parametrize("experiment", sorted(SWEEP_STDOUT_SHA256))
def test_minigo_sweep_stdout_is_golden(capsys, experiment):
    assert cli.main(SWEEP_ARGV[experiment]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == SWEEP_STDOUT_SHA256[experiment]


def test_quick_zoosweep_report_is_golden(tmp_path, capsys):
    out = tmp_path / "zoo_quick.txt"
    assert cli.main(["zoosweep", "--quick", "--out", str(out)]) == 0
    report = out.read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == report
    assert hashlib.sha256(report).hexdigest() == ZOOSWEEP_QUICK_SHA256


@pytest.mark.parametrize("case", sorted(FLAG_STDOUT_SHA256))
def test_sweep_flag_stdout_is_golden(capsys, case):
    assert cli.main(FLAG_ARGV[case]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == FLAG_STDOUT_SHA256[case]


def test_zoosweep_trace_dir_is_golden(tmp_path, capsys):
    out, traces = tmp_path / "zoo.txt", tmp_path / "traces"
    assert cli.main(["zoosweep", "--sims", "Pong", "--algos", "PPO", "--worker-counts", "2",
                     "--replicas", "1", "--timesteps", "3", "--trace-dir", str(traces),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    sha = hashlib.sha256(out.read_bytes())
    tree_digest(sha, traces)
    assert sha.hexdigest() == ZOOSWEEP_TRACE_DIR_SHA256
