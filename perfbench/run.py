"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload selfplay --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced iterations for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` reports the per-layer split of traced
iterations instead.  Both modes check every output.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the provenance of the result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for trace stores; removed before the benchmark exits.
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
# One BLAS thread per process, set before NumPy loads: on small matrices a
# multithreaded BLAS mostly spins, and its cost swings with machine load
# (profile iterations measured 2.7 s single-threaded, up to 15 s with two).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import layers  # noqa: E402
from spans import UNATTRIBUTED, Tracer  # noqa: E402
from workloads import COUNTS, WORKLOADS, Outcome  # noqa: E402

#: A seed no tuning of the benchmark used: re-check a claimed gain on it.
HELD_OUT_SEED = 7919
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {"ops_per_cpu_s": "1/s", "virtual_ops_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Checks:
    """Operations attempted and failed: iterations, digests and cross-checks."""

    attempted: int = 0
    failed: int = 0

    def run(self, check: Callable[[], None]) -> None:
        self.attempted += 1
        try:
            check()
        except Exception:  # every failure is reported and counted, never fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1


def _cpu_seconds() -> float:
    """CPU time of this process plus its finished worker processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed_iterations(workload, reference: Outcome, seconds: float, checks: Checks,
                      root=None) -> Tuple[List[float], List[float], List[Outcome]]:
    """Run iterations for ``seconds`` (at least one); wall and CPU time of each success."""
    walls: List[float] = []
    cpus: List[float] = []
    outcomes: List[Outcome] = []
    deadline = time.perf_counter() + seconds

    def iteration() -> None:
        cpu = _cpu_seconds()
        start = time.perf_counter()
        with root() if root is not None else nullcontext():
            outcome = workload.iterate()
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu)
        outcomes.append(outcome)
        if outcome.digest != reference.digest:
            raise AssertionError(f"{workload.name}: iteration digest {outcome.digest} "
                                 f"differs from the first iteration's {reference.digest}")

    while True:
        checks.run(iteration)
        if time.perf_counter() >= deadline:
            break
    if not walls:
        raise RuntimeError(f"{workload.name}: every iteration failed")
    return walls, cpus, outcomes


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_seconds(name: str, seed: int, size: str) -> float:
    """Fresh process start to the workload's first hot-loop call."""
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--size", size, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1]) - start


def _end_to_end(workload, reference, seconds, checks, setup) -> Dict[str, float]:
    _, cpus, _ = _timed_iterations(workload, reference, seconds, checks)
    peak_rss_mb = _peak_rss_mb()  # before the set-up probes add children
    return {
        "ops_per_cpu_s": reference.ops / statistics.median(cpus),
        "virtual_ops_per_s": reference.virtual_ops_per_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup()),
    }


def _check_partition(shares: Dict[str, float]) -> None:
    total = sum(shares.values())
    if abs(total - 100.0) > 5.0:
        raise AssertionError(f"layer self time plus unattributed time is {total:.2f}% "
                             "of the traced wall time")


def _per_layer(workload, reference, seconds, checks) -> Dict[str, Tuple[float, str]]:
    untraced, _, _ = _timed_iterations(workload, reference, seconds / 2, checks)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced, _, outcomes = _timed_iterations(workload, reference, seconds / 2, checks,
                                                root=tracer.root)
    finally:
        tracer.uninstall()
    roots = tracer.entry_calls[UNATTRIBUTED]
    shares = tracer.layer_shares(layers.LAYERS)
    checks.run(lambda: _check_partition(shares))

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_pct"] = (shares[layer], "%")
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / roots, "count")
    counts = outcomes[-1].counts
    for counter, unit in COUNTS.items():
        metrics[counter] = (float(counts.get(counter, 0)), unit)
    entry = tracer.entry_calls
    metrics["cuda_hw.api_calls"] = (
        (entry["CudaRuntime.launch_kernel"] + entry["CudaRuntime.memcpy_async"]) / roots,
        "count")
    metrics["parallel.segments"] = (entry["ParallelRunner.collect_segment"] / roots, "count")
    metrics["parallel.exec_calls"] = (entry["ParallelRunner.execute"] / roots, "count")
    metrics["serving.wire_bytes"] = (tracer.counters["serving.wire_bytes"] / roots, "B")
    metrics["unattributed_pct"] = (shares[UNATTRIBUTED], "%")
    metrics["traced_wall_s"] = (tracer.root_s / roots, "s")
    metrics["wall_ops_per_s"] = (reference.ops / statistics.median(untraced), "1/s")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced), "x")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, *, size: str = "full",
            setup_probes: int = SETUP_PROBES) -> dict:
    """Set up, warm up, check and time one workload; the benchmark's result object."""
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = WORKLOADS[name](seed, size, work_dir)
        workload.setup()
        # The first iteration fills lazy caches and is the reference every
        # later iteration, traced or not, must reproduce bit for bit.
        reference = workload.iterate()
        checks = Checks()
        checks.run(lambda: workload.cross_check(reference))
        if trace:
            metrics = _per_layer(workload, reference, seconds, checks)
        else:
            values = _end_to_end(
                workload, reference, seconds, checks,
                lambda: [_setup_seconds(name, seed, size) for _ in range(setup_probes)])
            metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def provenance(seed: int) -> dict:
    """Where a result came from: code, machine, interpreter and inputs."""
    import numpy

    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode())
        sources.update(path.read_bytes())
    return {"commit": commit, "source_sha256": sources.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        WORK.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="setup-", dir=WORK)
        try:
            WORKLOADS[args.workload](args.seed, args.size, work_dir).setup()
            ready = time.monotonic()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(ready)
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    print(json.dumps({"provenance": provenance(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
