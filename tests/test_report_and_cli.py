"""Tests for report formatting, the CLI entry points, and trace events serialisation."""

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import cli
from repro.experiments.cli import main as experiment_main
from repro.experiments.common import WorkloadSpec, run_workload
from repro.profiler import analyze, report
from repro.profiler.cli import main as prof_main
from repro.profiler.events import Event, EventTrace, OverheadMarker


# -------------------------------------------------------------------- report
def test_format_table_alignment():
    text = report.format_table(["name", "value"], [["a", 1.0], ["long-name", 123456.789]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "123,456.79" in text
    assert len(lines) == 4


@pytest.fixture(scope="module")
def small_analysis():
    run = run_workload(WorkloadSpec(algo="SAC", simulator="Hopper", total_timesteps=96),
                       use_ground_truth_calibration=True)
    return {"SAC/Hopper": run.analysis}


def test_breakdown_and_total_tables(small_analysis):
    text = report.breakdown_table(small_analysis)
    assert "backpropagation" in text and "Simulator" in text
    percent = report.breakdown_table(small_analysis, as_percent=True)
    assert "% of total" in percent
    totals = report.total_time_table(small_analysis)
    assert "total training time" in totals


def test_transitions_and_worker_tables(small_analysis):
    text = report.transitions_table(small_analysis, 96)
    assert "per iteration" in text
    from repro.profiler import multi_process_summary
    analysis = list(small_analysis.values())[0]
    summaries = multi_process_summary({"worker_0": analysis.trace})
    worker_text = report.worker_table(summaries, utilization_pct=100.0, true_busy_pct=1.2)
    assert "nvidia-smi" in worker_text and "1.2" in worker_text


def test_correction_table_format():
    rows = {"PPO2": {"instrumented_sec": 1.2, "corrected_sec": 1.0,
                     "uninstrumented_sec": 1.01, "bias_percent": -1.0}}
    text = report.correction_table(rows)
    assert "uninstrumented" in text and "PPO2" in text


# ---------------------------------------------------------------------- events
def test_event_serialisation_roundtrip():
    event = Event("Backend", "session_run", 1.5, 2.5, worker="w3", phase="p")
    assert Event.from_dict(event.to_dict()) == event
    marker = OverheadMarker("cupti", 3.0, api_name="cudaLaunchKernel", worker="w3")
    assert OverheadMarker.from_dict(marker.to_dict()) == marker
    trace = EventTrace()
    trace.add_event(event)
    trace.add_marker(marker)
    trace.add_event(Event("Operation", "inference", 0.0, 5.0))
    restored = EventTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert restored.events[0] == event
    assert restored.operations[0].name == "inference"
    assert restored.markers[0] == marker


def test_event_validation():
    trace = EventTrace()
    with pytest.raises(ValueError):
        trace.add_event(Event("Python", "x", 10.0, 5.0))
    event = Event("Python", "x", 0.0, 5.0)
    other = Event("GPU", "y", 4.0, 6.0)
    assert event.overlaps(other)
    assert not event.overlaps(Event("GPU", "z", 5.0, 6.0))


# ------------------------------------------------------------------------ CLI
def test_rls_prof_cli_runs(capsys):
    exit_code = prof_main(["--algo", "SAC", "--simulator", "Hopper", "--steps", "96"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "total training time" in output
    assert "backpropagation" in output


def test_rls_prof_cli_uninstrumented_and_trace_dir(tmp_path, capsys):
    exit_code = prof_main(["--algo", "PPO2", "--simulator", "Hopper", "--steps", "32",
                           "--uninstrumented"])
    assert exit_code == 0
    exit_code = prof_main(["--algo", "PPO2", "--simulator", "Hopper", "--steps", "32",
                           "--trace-dir", str(tmp_path / "traces")])
    assert exit_code == 0
    assert (tmp_path / "traces" / "tracedb_index.json").exists()
    assert "trace written" in capsys.readouterr().out


def test_rls_prof_cli_unknown_framework():
    with pytest.raises(SystemExit):
        prof_main(["--framework", "NotAFramework", "--steps", "8"])


def test_rls_experiment_cli_table1(capsys):
    assert experiment_main(["table1"]) == 0
    output = capsys.readouterr().out
    assert "stable-baselines" in output


def test_rls_experiment_cli_fig5(capsys):
    assert experiment_main(["fig5", "--timesteps", "40"]) == 0
    output = capsys.readouterr().out
    assert "Figure 5" in output and "Simulation-bound" in output


#: One flag each experiment does not read.
REJECTED_FLAG = {
    "table1": ["--seed", "1"],
    "fig4": ["--workers", "2"],
    "fig5": ["--algo", "TD3"],
    "fig7": ["--quick"],
    "fig8": ["--timesteps", "40"],
    "fig11a": ["--replicas", "2"],
    "fig11b": ["--out", "report.txt"],
    "batchsweep": ["--trace-dir", "traces"],
    "schedsweep": ["--rates", "0.5"],
    "replicasweep": ["--clients", "8"],
    "servesweep": ["--sims", "Pong"],
    "zoosweep": ["--leaf-batches", "2"],
    "cachesweep": ["--fault-rates", "0"],
    "faultsweep": ["--overloads", "block"],
    "findings": ["--quick"],
}


def test_every_experiment_has_a_rejected_flag_case():
    assert set(REJECTED_FLAG) == set(cli.EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(REJECTED_FLAG))
def test_experiment_cli_rejects_a_flag_it_does_not_read(capsys, experiment):
    flag = REJECTED_FLAG[experiment]
    with pytest.raises(SystemExit) as exit_info:
        cli.parse([experiment, *flag])
    assert exit_info.value.code == 2
    assert f"{experiment} does not take {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["fig8", "--replicas", "1,2"], "--replicas"),
    (["schedsweep", "--replicas", "1,2"], "--replicas"),
    (["replicasweep", "--leaf-batches", "1,4"], "--leaf-batches"),
])
def test_experiment_cli_rejects_a_list_where_one_value_is_read(capsys, argv, flag):
    with pytest.raises(SystemExit):
        cli.parse(argv)
    assert f"{argv[0]} takes a single {flag} value" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["faultsweep", "--quick", "--fault-policies", "bogus"], "--fault-policies"),
    (["zoosweep", "--quick", "--sims", "Bogus"], "--sims"),
    (["zoosweep", "--quick", "--algos", "Bogus"], "--algos"),
    (["servesweep", "--quick", "--overloads", "bogus"], "--overloads"),
])
def test_experiment_cli_rejects_an_unknown_name_before_running(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        cli.parse(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: unknown" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 7])
def test_experiment_cli_findings_runs_fig8_at_its_seed(monkeypatch, seed):
    configs = []
    monkeypatch.setattr(cli, "run_fig8", configs.append)
    for name in ("run_fig4", "run_fig5", "run_fig7"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)
    monkeypatch.setattr(cli.findings, "check_all", lambda **results: {})
    assert cli.main(["findings", "--seed", str(seed)]) == 0
    assert configs == [replace(cli.DEFAULT_MINIGO_CONFIG, seed=seed)]
    if seed == 0:
        assert configs == [cli.DEFAULT_MINIGO_CONFIG]


def _documented_invocations():
    """Every ``rls-experiment`` / ``python -m repro.experiments.cli`` command
    line in the CLI docstring and the README, as argument lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = (cli.__doc__ + readme).replace("\\\n", " ")
    pattern = r"(?:rls-experiment|python -m repro\.experiments\.cli) ([a-z0-9][^`\n#]*)"
    return [shlex.split(match) for match in re.findall(pattern, text)]


def test_experiment_cli_accepts_every_documented_invocation():
    invocations = _documented_invocations()
    assert len(invocations) > 20
    for argv in invocations:
        cli.parse(argv)


def test_experiment_cli_maps_flags_to_keyword_arguments():
    assert cli.parse(["replicasweep", "--workers", "4", "--routing", "sticky",
                      "--leaf-batches", "4", "--replicas", "1,2"]) == (
        "replicasweep", {"worker_counts": (4,), "routings": ("sticky",), "leaf_batch": 4,
                         "replica_counts": (1, 2)}, None)
    assert cli.parse(["servesweep", "--quick", "--rates", "1.0"]) == (
        "servesweep", {"multipliers": (1.0,), "overloads": ("none", "shed-newest"),
                       "replica_counts": (1,), "num_clients": 64, "horizon_us": 10_000.0},
        None)
    assert cli.parse(["cachesweep"])[2] == "results/cache_sweep.txt"


def test_experiment_cli_batchsweep(capsys):
    assert experiment_main(["batchsweep", "--leaf-batches", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "Batch-size sweep" in out
    assert "fewer" in out
