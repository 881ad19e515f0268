"""Golden digests of the profiler's CUDA-path artifacts.

Every simulated CUDA API call draws cost-model jitter, advances the clock,
leaves a CUPTI record and, under the profiler, a CUDA event plus overhead
markers; every kernel leaves a GPU event at finalize.  These digests were
recorded before that path was batched, so any change to how the records are
produced must leave all of them byte-identical:

* the trace store files (the ``.tdbc`` chunk and ``tracedb_index.json``) of
  the 72-step TD3/HalfCheetah streamed profile, at seeds 1 and 7919;
* the stdout of ``rls-experiment fig4 --algo TD3 --timesteps 40``;
* the stdout of ``rls-experiment fig11a --timesteps 40`` (a CI step
  re-checks this one's digest against :data:`FIG11A_QUICK_SHA256`);
* the store files and the stdout (minus the last line, which prints the
  store path) of ``rls-prof --algo TD3 --simulator HalfCheetah --steps 100
  --trace-dir DIR`` without ``--streaming``: the in-memory trace written to
  a store once, at finalize (a CI step re-checks the store digest against
  :data:`RLS_PROF_STORE_SHA256`).

Two more groups pin what the store digests cannot see:

* the trained weights: SHA-256 over every network's ``state_dict()`` bytes
  after TD3/HalfCheetah 72 steps at seeds 1 and 7919 (actor, critic and
  both targets), stable-baselines DDPG 80 steps (through ``MPIAdam``) and
  SAC 80 steps (at 40 steps neither has a 64-row batch yet, so neither
  updates).  A wrong optimizer update changes these and nothing else;
* the analysis of a store: ``analyze_db``'s breakdowns, overhead items in
  order, transition counts, totals and GPU fraction, plus
  ``multi_process_summary_db``, on the two-chunk ``rls-prof`` store and on
  a three-worker streamed ``SelfPlayPool`` store.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.backend.layers import Module
from repro.experiments import cli
from repro.hw.costmodel import CostModelConfig
from repro.minigo.workers import SelfPlayPool
from repro.profiler import analyze_db, multi_process_summary_db
from repro.profiler import cli as prof_cli
from repro.profiler.api import Profiler, ProfilerConfig
from repro.profiler.calibration import CalibrationResult
from repro.rl import STABLE_BASELINES, FrameworkAdapter, default_config, make_algorithm
from repro.sim import make as make_env
from repro.system import System
from repro.tracedb import TraceDB

#: SHA-256 over the sorted ``(file name, file bytes)`` pairs of the store.
PROFILE_STORE_SHA256 = {
    1: "7f43fe81a7f4ef1456a4a1f206581fa0fb2fb5eac6db6b02a7ec1da8870d8fd4",
    7919: "42ebadcd9c93146f2de6e4d6bf6c3c3111d0ca198ba93e7d8bf03e077a49ff82",
}
#: SHA-256 of the stdout of ``fig4 --algo TD3 --timesteps 40``.
FIG4_QUICK_SHA256 = (
    "254421eb97a4740775194a793ed8cb02fdb390abc3ae5a67a978b7482f0c807f")
#: SHA-256 of the stdout of ``fig11a --timesteps 40``.
FIG11A_QUICK_SHA256 = (
    "0d708716bfbcd8de5caeb8325c1781db5cb8051f07c6022b230109b95a117647")

#: :func:`store_digest` of the store ``rls-prof --algo TD3 --simulator
#: HalfCheetah --steps 100 --trace-dir DIR`` writes without ``--streaming``
#: (two chunks plus the index).
RLS_PROF_STORE_SHA256 = (
    "cca510df134640acb0ae9dfe9bb860bf92446074cc420e214eafba68af3cd858")
#: SHA-256 of that run's stdout without its last line (the store path).
RLS_PROF_STDOUT_SHA256 = (
    "4b409462e6cab41df795874837cb2c6c4404af4061a51396eca4eb945616b346")

PROFILE_STEPS = 72

#: :func:`weights_digest` after training, keyed by ``(algo, simulator, steps,
#: seed)``; stable-baselines DDPG updates through ``MPIAdam``.
WEIGHTS_SHA256 = {
    ("TD3", "HalfCheetah", 72, 1):
        "8acc3835ce4bfacb85de0461ef2f43a119249e535122bdd24455ed7391192795",
    ("TD3", "HalfCheetah", 72, 7919):
        "018b18b939041ffc4b809dbfba81ba24448fcf49e90965ca946c2b340156d336",
    ("DDPG", "HalfCheetah", 80, 1):
        "0ebdf18e57beee4b8373be5d8eb5b8dbd6749868f9173a937573a9a3232a1ab9",
    ("SAC", "HalfCheetah", 80, 1):
        "65a2f53f225c30b2233d06e7e4044401b3655f38c0f7bf8ff17af106f26847e9",
}
#: :func:`analysis_digest` of the ``rls-prof --steps 100 --trace-dir`` store.
RLS_PROF_ANALYSIS_SHA256 = (
    "785b11c0056535e6954aa93bb716610864b85ca78462cbc322c3dbf565f3439c")
#: :func:`analysis_digest` of the store of a three-worker streamed self-play pool.
SELFPLAY_ANALYSIS_SHA256 = (
    "8dac857c6345a18d422058bf909b0c2837588565cd0c7028848ece2d53280862")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_digest(store_dir: Path) -> str:
    """SHA-256 over the sorted ``(file name, file bytes)`` pairs of a store."""
    sha = hashlib.sha256()
    for path in sorted(Path(store_dir).iterdir()):
        sha.update(path.name.encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def profile_store_digest(store_dir: Path, seed: int) -> str:
    """Stream a full-profiler TD3/HalfCheetah run into ``store_dir``; digest its files."""
    system = System.create(seed=seed)
    env = make_env("HalfCheetah", system, seed=seed)
    framework = FrameworkAdapter(system, STABLE_BASELINES)
    profiler = Profiler(system, ProfilerConfig.full(), trace_dir=str(store_dir), streaming=True)
    profiler.attach(engine=framework.engine, envs=[env])
    agent = make_algorithm("TD3", env, framework, config=default_config("TD3"),
                           profiler=profiler, seed=seed)
    agent.train(PROFILE_STEPS)
    profiler.finalize()
    return store_digest(store_dir)


def weights_digest(algo: str, simulator: str, steps: int, seed: int) -> str:
    """Train under the full profiler; SHA-256 over every network's state_dict bytes."""
    system = System.create(seed=seed)
    env = make_env(simulator, system, seed=seed)
    framework = FrameworkAdapter(system, STABLE_BASELINES)
    profiler = Profiler(system, ProfilerConfig.full())
    profiler.attach(engine=framework.engine, envs=[env])
    agent = make_algorithm(algo, env, framework, config=default_config(algo),
                           profiler=profiler, seed=seed)
    agent.train(steps)
    sha = hashlib.sha256()
    networks = sorted((name, value) for name, value in vars(agent).items()
                      if isinstance(value, Module))
    assert len(networks) >= 3
    for name, network in networks:
        sha.update(name.encode("utf-8"))
        for array in network.state_dict():
            sha.update(repr((array.dtype.str, array.shape)).encode("utf-8"))
            sha.update(array.tobytes())
    return sha.hexdigest()


def analysis_digest(store_dir: Path) -> str:
    """SHA-256 of the reprs of everything ``analyze_db`` reports on a store.

    Dict reprs keep insertion order and float reprs are exact, so key order
    and float bits are both pinned.
    """
    db = TraceDB(str(store_dir))
    calibration = CalibrationResult.from_ground_truth(CostModelConfig())
    analysis = analyze_db(db, calibration=calibration)
    outputs = (
        analysis.category_breakdown_us(),
        analysis.category_breakdown_us(corrected=False),
        analysis.resource_breakdown_us(),
        list(analysis.overheads().items()),
        analysis.transition_counts(),
        analysis.total_time_us(),
        analysis.total_time_us(corrected=False),
        analysis.gpu_fraction(),
        multi_process_summary_db(db),
    )
    return _sha256(repr(outputs).encode("utf-8"))


def cli_stdout_digest(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return _sha256(capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("seed", sorted(PROFILE_STORE_SHA256))
def test_streamed_profile_store_is_golden(tmp_path, seed):
    assert profile_store_digest(tmp_path / "store", seed) == PROFILE_STORE_SHA256[seed]


def test_fig4_quick_report_is_golden(capsys):
    assert cli_stdout_digest(capsys, ["fig4", "--algo", "TD3", "--timesteps", "40"]) \
        == FIG4_QUICK_SHA256


def test_fig11a_quick_report_is_golden(capsys):
    assert cli_stdout_digest(capsys, ["fig11a", "--timesteps", "40"]) == FIG11A_QUICK_SHA256


def test_rls_prof_trace_dir_store_and_report_are_golden(tmp_path, capsys):
    store = tmp_path / "store"
    assert prof_cli.main(["--algo", "TD3", "--simulator", "HalfCheetah", "--steps", "100",
                          "--trace-dir", str(store)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1] == f"trace written to {store}\n"
    assert _sha256("".join(lines[:-1]).encode("utf-8")) == RLS_PROF_STDOUT_SHA256
    assert sorted(path.name for path in store.iterdir()) == [
        "shard_worker_0_00000.tdbc", "shard_worker_0_00001.tdbc", "tracedb_index.json"]
    assert store_digest(store) == RLS_PROF_STORE_SHA256


@pytest.mark.parametrize("run", sorted(WEIGHTS_SHA256))
def test_trained_weights_are_golden(run):
    assert weights_digest(*run) == WEIGHTS_SHA256[run]


def test_rls_prof_store_analysis_is_golden(tmp_path, capsys):
    store = tmp_path / "store"
    assert prof_cli.main(["--algo", "TD3", "--simulator", "HalfCheetah", "--steps", "100",
                          "--trace-dir", str(store)]) == 0
    capsys.readouterr()
    assert analysis_digest(store) == RLS_PROF_ANALYSIS_SHA256


def test_selfplay_pool_store_analysis_is_golden(tmp_path):
    store = tmp_path / "store"
    SelfPlayPool(3, board_size=5, num_simulations=4, max_moves=6, hidden=(8,),
                 batched_inference=True, scheduler="event", leaf_batch=2,
                 seed=1, trace_dir=str(store)).run()
    assert len(TraceDB(str(store)).workers()) == 3
    assert analysis_digest(store) == SELFPLAY_ANALYSIS_SHA256
