"""Tests for the bench record (``benchmarks/record.py``), on a scratch file."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from record import REQUIRED, check, commit_hash, record  # noqa: E402

#: One complete record: every required key, with values the summary can read.
BLOCKS = {
    "wallclock": {"quick": True, "min_speedup_bar": 3.0, "metrics": {
        "end_to_end": {"speedup": 4.0},
        "overlap": {"vector_speedup": 6.0, "events_per_sec": 1e6,
                    "loop_events_per_sec": 1.5e5}}},
    "serving": {"quick": True, "harness_requests_per_sec": 9000.0},
    "multiproc": {"quick": True, "cpu_count": 2, "bar_enforced": False,
                  "table": [{"processes": 1, "wall_s": 0.4, "speedup": 0.6}]},
    "cache": {"quick": True, "selfplay": {"call_reduction": 1.4},
              "evaluation": {"row_reduction": 2.4}, "serving": {}},
    "faults": {"quick": True, "crash_1_of_2": {}, "empty_plan_identical": True,
               "replay_identical": True,
               "crash_1_of_4": {"lost_requests": 0, "goodput_degrade_per_sec": 5e4,
                                "availability": 0.9}},
}


@pytest.fixture
def full_record(tmp_path):
    path = tmp_path / "BENCH_wallclock.json"
    for name, fields in BLOCKS.items():
        record(name, fields, path)
    return path


def _edit(path, change):
    payload = json.loads(path.read_text(encoding="utf-8"))
    change(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_blocks_recorded_by_two_benches_both_survive(tmp_path):
    path = tmp_path / "BENCH_wallclock.json"
    record("serving", {"quick": False, "harness_requests_per_sec": 1.0}, path)
    stored = record("cache", {"quick": False, "selfplay": {"call_reduction": 1.4}}, path)
    record("serving", {"quick": True, "harness_requests_per_sec": 2.0}, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {
        "serving": {"commit": commit_hash(), "quick": True, "harness_requests_per_sec": 2.0},
        "cache": {"commit": commit_hash(), "quick": False,
                  "selfplay": {"call_reduction": 1.4}},
    }
    assert stored == payload["cache"]


def test_check_passes_on_a_complete_fresh_record(full_record):
    assert set(BLOCKS) == set(REQUIRED)
    summary = check(full_record)
    assert summary.startswith(f"bench record fresh at {commit_hash()}: 9000 serving req/s")


@pytest.mark.parametrize("change, message", [
    (lambda p: p["cache"].update(commit="0" * 40), "'cache' block is stale"),
    (lambda p: p.pop("multiproc"), "'multiproc' block is missing"),
    (lambda p: p["wallclock"]["metrics"]["overlap"].pop("vector_speedup"),
     "'wallclock' block is partial: missing ['metrics.overlap.vector_speedup']"),
    (lambda p: p["faults"].pop("replay_identical"),
     "'faults' block is partial: missing ['replay_identical']"),
    (lambda p: p["multiproc"].update(table=[]), "no scaling table"),
    (lambda p: p["faults"]["crash_1_of_4"].update(lost_requests=3), "lost requests"),
])
def test_check_fails_on_a_stale_missing_or_partial_record(full_record, change, message):
    _edit(full_record, change)
    with pytest.raises(SystemExit) as failure:
        check(full_record)
    assert message in str(failure.value.code)


def test_check_fails_without_a_record(tmp_path):
    with pytest.raises(SystemExit, match="missing: the benches did not run"):
        check(tmp_path / "BENCH_wallclock.json")
