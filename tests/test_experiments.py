"""Integration tests: the experiment harness regenerates the paper's figures (small scale)."""

import numpy as np
import pytest

from repro.experiments import (
    Fig4Result,
    WorkloadSpec,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_table1,
    run_workload,
    validate_workload,
)
from repro.experiments import findings, table1
from repro.experiments.fig8 import Fig8Result
from repro.minigo import MinigoConfig
from repro.profiler import ProfilerConfig
from repro.rl.frameworks import STABLE_BASELINES, TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER

SMALL_STEPS = 72


# ------------------------------------------------------------------ workloads
def test_run_workload_returns_consistent_analysis():
    run = run_workload(WorkloadSpec(algo="SAC", simulator="Hopper", total_timesteps=SMALL_STEPS),
                       use_ground_truth_calibration=True)
    assert run.total_time_sec > 0
    breakdown = run.analysis.category_breakdown_sec()
    assert {"inference", "simulation", "backpropagation"} <= set(breakdown)
    total_from_breakdown = sum(sum(c.values()) for c in breakdown.values())
    assert total_from_breakdown <= run.total_time_sec * 1.05
    assert run.train_result.gradient_updates > 0


def test_workload_spec_scaling_and_label():
    spec = WorkloadSpec(algo="TD3", simulator="Walker2D", total_timesteps=100)
    assert spec.scaled(0.5).total_timesteps == 50
    assert spec.scaled(0.0).total_timesteps == 16  # floor
    assert "TD3" in spec.label and "Walker2D" in spec.label


def test_same_seed_same_virtual_time():
    spec = WorkloadSpec(algo="PPO2", simulator="Hopper", total_timesteps=SMALL_STEPS)
    a = run_workload(spec, profiler_config=ProfilerConfig.uninstrumented())
    b = run_workload(spec, profiler_config=ProfilerConfig.uninstrumented())
    assert a.total_time_us == pytest.approx(b.total_time_us, rel=1e-9)


# -------------------------------------------------------------------- table 1
def test_table1_rows():
    rows = run_table1()
    assert len(rows) == 4
    assert {row.execution_model for row in rows} == {"Graph", "Autograph", "Eager"}
    assert {row.ml_backend for row in rows} == {"Tensorflow", "Pytorch"}
    text = table1.report(rows)
    assert "stable-baselines" in text and "ReAgent" in text


# -------------------------------------------------------------------- figure 4
@pytest.fixture(scope="module")
def small_fig4_td3() -> Fig4Result:
    return run_fig4("TD3", timesteps=SMALL_STEPS)


@pytest.fixture(scope="module")
def small_fig4_ddpg() -> Fig4Result:
    return run_fig4("DDPG", timesteps=SMALL_STEPS)


def test_fig4_structure(small_fig4_td3):
    assert set(small_fig4_td3.runs) == {"Pytorch Eager", "Tensorflow Autograph",
                                        "Tensorflow Eager", "Tensorflow Graph"}
    totals = small_fig4_td3.total_times_sec()
    assert all(v > 0 for v in totals.values())
    transitions = small_fig4_td3.transitions_per_iteration()
    assert transitions["Tensorflow Graph"]["simulation"]["Simulator"] == pytest.approx(1.0, rel=0.3)
    report = small_fig4_td3.report()
    assert "Figure 4" in report and "Backend" in report


def test_fig4_framework_findings_hold(small_fig4_td3, small_fig4_ddpg):
    checks = findings.check_all(fig4_td3=small_fig4_td3, fig4_ddpg=small_fig4_ddpg)
    for finding_id in ["F.1", "F.2", "F.3", "F.4", "F.6", "F.7", "F.8"]:
        assert checks[finding_id].holds, str(checks[finding_id])


def test_fig4_eager_slowdown_within_paper_range(small_fig4_td3):
    totals = small_fig4_td3.total_times_sec()
    ratio = totals["Tensorflow Eager"] / totals["Tensorflow Graph"]
    assert 1.5 <= ratio <= 8.0  # paper reports 1.9x - 4.8x


# -------------------------------------------------------------------- figure 5
def test_fig5_on_policy_more_simulation_bound():
    result = run_fig5(timesteps=SMALL_STEPS)
    assert result.simulation_fraction("A2C") > result.simulation_fraction("DDPG")
    assert result.simulation_fraction("PPO2") > result.simulation_fraction("SAC")
    checks = findings.check_all(fig5=result)
    assert checks["F.9"].holds, str(checks["F.9"])
    assert checks["F.10"].holds, str(checks["F.10"])
    assert "Figure 5" in result.report()


# -------------------------------------------------------------------- figure 7
def test_fig7_simulation_always_a_bottleneck():
    result = run_fig7(timesteps=SMALL_STEPS, simulators=["AirLearning", "Pong", "Walker2D", "Hopper"])
    check = findings.check_f12_simulation_always_large(result)
    assert check.holds, str(check)
    assert result.simulation_fraction("AirLearning") > result.simulation_fraction("Walker2D")
    assert result.gpu_fraction("Walker2D") < 0.2
    assert "Figure 7" in result.report()


# -------------------------------------------------------------------- figure 8
def test_fig8_utilization_vs_true_gpu_time():
    config = MinigoConfig(num_workers=4, board_size=5, num_simulations=4, games_per_worker=1,
                          max_moves=10, sgd_steps=4, evaluation_games=1, hidden=(32, 32), seed=0)
    result = run_fig8(config)
    assert isinstance(result, Fig8Result)
    check = findings.check_f11_misleading_gpu_utilization(result)
    assert check.holds, str(check)
    assert len(result.selfplay_summaries()) == 4
    assert "Figure 8" in result.report()


def test_fig8_replicas_without_batched_inference_rejected_by_the_pool(monkeypatch):
    # run_fig8 carries no check of its own: the SelfPlayPool constructor
    # rejects the combination before any self-play or training work runs.
    from repro.minigo.training import MinigoTraining
    from repro.minigo.workers import SelfPlayPool

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the pool validated its arguments")

    monkeypatch.setattr(SelfPlayPool, "run", no_work)
    monkeypatch.setattr(MinigoTraining, "_train_candidate", no_work)
    with pytest.raises(ValueError, match=r"num_replicas > 1 requires batched_inference=True"):
        run_fig8(num_replicas=2)


# ------------------------------------------------------------------- figure 11
def test_fig11_correction_within_tolerance_single_workload():
    validation = validate_workload(WorkloadSpec(algo="PPO2", simulator="Hopper",
                                                total_timesteps=SMALL_STEPS))
    assert validation.uncorrected_inflation_percent > 0
    assert abs(validation.bias_percent) <= 16.0
    assert validation.corrected_sec <= validation.instrumented_sec


@pytest.mark.parametrize("run", [
    "run_batch_sweep", "run_sched_sweep", "run_replica_sweep", "run_serve_sweep",
    "run_cache_sweep", "run_fault_sweep", "run_zoo_sweep"])
def test_sweeps_reject_unknown_keywords_before_running(run):
    import repro.experiments as experiments

    with pytest.raises(TypeError, match="unknown arguments: bogus"):
        getattr(experiments, run)(bogus=1)


def test_batch_sweep_reports_call_reduction():
    from repro.experiments.batchsweep import run_batch_sweep

    sweep = run_batch_sweep((1, 4), num_workers=2, num_simulations=6,
                            max_moves=6, hidden=(16, 16), seed=0)
    assert [p.leaf_batch for p in sweep.points] == [1, 4]
    base, batched = sweep.points
    assert base.engine_calls == base.rows          # per-leaf baseline
    assert batched.mean_batch_rows > 1.0
    assert sweep.call_reduction(4) > 1.0
    for point in sweep.points:
        assert point.moves > 0 and point.span_us > 0
        assert point.cpu_only_us + point.cpu_gpu_us > 0
    report = sweep.report()
    assert "leaf_batch" in report and "engine calls" in report
