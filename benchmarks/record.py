"""The bench record: ``BENCH_wallclock.json`` at the repository root.

The only code that reads or writes the record.  The wall-clock,
multiprocess, serving, cache and fault benches each :func:`record` one named
block; every block is stamped with the commit it was measured at, and blocks
recorded by other benches are kept.  The file is not tracked (a record
committed with its numbers could never name the commit that contains it):
the CI benchmarks job regenerates it, checks it and uploads it.  The
performance record is perfbench (``perfbench/``), which takes repeated
samples; these are single ones.

Check the record after the benches ran (exits non-zero on a missing block, a
missing key or a block from another commit, else prints one summary line)::

    python benchmarks/record.py --check
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_wallclock.json"

#: Every block the benches record, with the keys ``check`` requires of it
#: (dotted keys reach into nested dicts).
REQUIRED: Dict[str, Sequence[str]] = {
    "wallclock": ("quick", "min_speedup_bar", "metrics.end_to_end.speedup",
                  "metrics.overlap.vector_speedup", "metrics.overlap.events_per_sec",
                  "metrics.overlap.loop_events_per_sec"),
    "serving": ("quick", "harness_requests_per_sec"),
    "multiproc": ("quick", "cpu_count", "bar_enforced", "table"),
    "cache": ("quick", "selfplay.call_reduction", "evaluation.row_reduction", "serving"),
    "faults": ("quick", "crash_1_of_4.lost_requests",
               "crash_1_of_4.goodput_degrade_per_sec", "crash_1_of_4.availability",
               "crash_1_of_2", "empty_plan_identical", "replay_identical"),
}


def commit_hash() -> str:
    """HEAD's commit, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _load(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def record(block: str, fields: Dict[str, Any], path: Path = RECORD_PATH) -> Dict[str, Any]:
    """Merge ``fields`` into the record as ``block``, stamped with HEAD.

    The block replaces any earlier one of that name; every other block is
    kept.  Returns the stored block (its ``commit`` included).
    """
    payload = _load(path)
    payload[block] = {"commit": commit_hash(), **fields}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload[block]


def _missing(block: Dict[str, Any], dotted: str) -> bool:
    value: Any = block
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return True
        value = value[key]
    return False


def check(path: Path = RECORD_PATH) -> str:
    """Validate the record against :data:`REQUIRED`; return the summary line.

    Exits (``SystemExit`` with every problem found) when the file is absent,
    a block or one of its keys is missing, or a block's commit is not HEAD.
    """
    if not path.exists():
        sys.exit(f"{path.name} missing: the benches did not run")
    payload = _load(path)
    head = commit_hash()
    problems = []
    for name, keys in REQUIRED.items():
        block = payload.get(name)
        if not isinstance(block, dict):
            problems.append(f"the {name!r} block is missing: its bench did not run")
            continue
        if block.get("commit") != head:
            problems.append(f"the {name!r} block is stale: commit "
                            f"{block.get('commit')!r} != HEAD {head}")
        missing = [key for key in keys if _missing(block, key)]
        if missing:
            problems.append(f"the {name!r} block is partial: missing {missing}")
    if not problems:
        if not payload["multiproc"]["table"]:
            problems.append("the 'multiproc' block has no scaling table")
        if payload["faults"]["crash_1_of_4"]["lost_requests"] != 0:
            problems.append("the 'faults' block records lost requests under a 1-of-4 crash")
    if problems:
        sys.exit(f"{path.name} fails its check:\n  " + "\n  ".join(problems))
    wallclock, overlap = payload["wallclock"], payload["wallclock"]["metrics"]["overlap"]
    multiproc, cache, crash = payload["multiproc"], payload["cache"], payload["faults"]["crash_1_of_4"]
    best = max(row["speedup"] for row in multiproc["table"])
    return (f"bench record fresh at {head}: "
            f"{payload['serving']['harness_requests_per_sec']:.0f} serving req/s, "
            f"{wallclock['metrics']['end_to_end']['speedup']:.2f}x harness speedup, "
            f"{overlap['vector_speedup']:.2f}x overlap sweep "
            f"({overlap['events_per_sec']:,.0f} intervals/s), "
            f"multiproc best {best:.2f}x on {multiproc['cpu_count']} cores (bar "
            f"{'enforced' if multiproc['bar_enforced'] else 'recorded'}), "
            f"cache {cache['selfplay']['call_reduction']:.2f}x self-play calls / "
            f"{cache['evaluation']['row_reduction']:.2f}x eval rows, "
            f"faults {crash['goodput_degrade_per_sec']:.0f} req/s degraded goodput "
            f"at availability {crash['availability']:.2f}")


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="validate the record and print its summary line")
    parser.parse_args(argv)
    print(check())


if __name__ == "__main__":
    main()
