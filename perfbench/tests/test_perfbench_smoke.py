"""Tiny-size smoke runs: every workload reports every named metric with its unit."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.0, trace=trace, size="tiny",
                         setup_probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == declared
    assert all(isinstance(metric["value"], float) for metric in metrics.values())
    if trace:
        shares = [f"{layer}.self_pct" for layer in LAYERS] + ["unattributed_pct"]
        assert sum(metrics[name]["value"] for name in shares) == pytest.approx(100.0)
    else:
        assert all(metric["value"] > 0 for metric in metrics.values())


def test_the_seed_alone_fixes_a_workloads_outputs():
    runs = [WORKLOADS["serving"](seed, "tiny", "") for seed in (5, 5, 6)]
    for workload in runs:
        workload.setup()
    first, again, other = (workload.iterate().digest for workload in runs)
    assert first == again != other
