"""Tests for the zoo sweep experiment (sims x algorithms x workers x replicas)."""

import pytest

from repro.experiments.zoosweep import (
    DEFAULT_ZOO_ALGOS,
    DEFAULT_ZOO_SIMS,
    run_zoo_sweep,
)

QUICK_GRID = dict(sims=("Pong", "Hopper"), algorithms=("DQN", "PPO", "DDPG"),
                  worker_counts=(4,), replica_counts=(1,), steps_per_worker=6)


@pytest.fixture(scope="module")
def quick_sweep():
    return run_zoo_sweep(QUICK_GRID["sims"], **{k: v for k, v in QUICK_GRID.items()
                                                if k != "sims"})


def test_sweep_covers_compatible_cells_and_skips_the_rest(quick_sweep):
    covered = {(p.sim, p.algorithm) for p in quick_sweep.points}
    assert covered == {("Pong", "DQN"), ("Pong", "PPO"),
                       ("Hopper", "PPO"), ("Hopper", "DDPG")}
    skipped = {(sim, algo) for sim, algo, _ in quick_sweep.skipped}
    assert skipped == {("Pong", "DDPG"), ("Hopper", "DQN")}
    for _, _, reason in quick_sweep.skipped:
        assert "action space" in reason


def test_every_cell_batches_across_workers(quick_sweep):
    """The acceptance floors: cross-worker share > 0 and a real engine-call
    reduction vs the unbatched control, in every cell."""
    assert quick_sweep.points
    for point in quick_sweep.points:
        assert point.cross_worker_share > 0.0, point
        assert point.engine_call_reduction > 1.0, point
        assert point.rows == point.steps == point.unbatched_engine_calls
        assert point.mean_batch > 1.0


def test_sweep_is_deterministic(quick_sweep):
    again = run_zoo_sweep(QUICK_GRID["sims"], **{k: v for k, v in QUICK_GRID.items()
                                                 if k != "sims"})
    assert again.report() == quick_sweep.report()


def test_point_lookup(quick_sweep):
    point = quick_sweep.point("Pong", "DQN", 4, 1)
    assert point.sim == "Pong" and point.algorithm == "DQN"
    with pytest.raises(KeyError):
        quick_sweep.point("Pong", "DQN", 99, 1)


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        run_zoo_sweep(())
    with pytest.raises(ValueError):
        run_zoo_sweep(("Pong",), algorithms=("NotAnAlgo",))
    with pytest.raises(ValueError):
        run_zoo_sweep(("Pong",), worker_counts=(0,))


def test_defaults_cover_the_roadmap_floor():
    assert len([s for s in DEFAULT_ZOO_SIMS if s != "Go"]) >= 3
    assert len(DEFAULT_ZOO_ALGOS) >= 2


def test_trace_dir_streams_per_cell_tracedbs(tmp_path):
    result = run_zoo_sweep(("Pong",), algorithms=("DQN",), worker_counts=(2,),
                           replica_counts=(1,), steps_per_worker=3,
                           trace_dir=str(tmp_path))
    assert result.points
    cell = tmp_path / "Pong_DQN_w2_r1"
    assert cell.is_dir()
    from repro.tracedb.store import TraceDB
    db = TraceDB(str(cell))
    assert set(db.workers()) == {"rollout_worker_0", "rollout_worker_1"}


def test_zoosweep_cli_quick_writes_report(tmp_path, capsys, monkeypatch):
    """A quick report never lands on the full grid's default path."""
    from repro.experiments.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["zoosweep", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Zoo sweep" in out
    assert not (tmp_path / "results").exists()
    assert main(["zoosweep", "--quick", "--out", "quick.txt"]) == 0
    report = (tmp_path / "quick.txt").read_text()
    assert report.strip() in capsys.readouterr().out
    assert not (tmp_path / "results").exists()
