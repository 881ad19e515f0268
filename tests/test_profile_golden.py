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
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.profiler import cli as prof_cli
from repro.profiler.api import Profiler, ProfilerConfig
from repro.rl import STABLE_BASELINES, FrameworkAdapter, default_config, make_algorithm
from repro.sim import make as make_env
from repro.system import System

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
