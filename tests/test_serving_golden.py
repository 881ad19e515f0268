"""Golden digests of the serving tier's deterministic outputs.

Each test reruns one seeded serving workload and compares the SHA-256 of its
rendered output against a digest recorded before the wire codec changed.
The wire format is internal to a run, so any codec change must leave every
one of these byte-identical:

* the quick ``servesweep`` report, written through the experiment CLI
  exactly as the CI smoke step writes it (the step re-checks the file's
  digest against :data:`SERVESWEEP_QUICK_SHA256`);
* the quick ``cachesweep`` report;
* the quick ``faultsweep`` report: only its digest,
  :data:`FAULTSWEEP_QUICK_SHA256`, lives here; a CI step checks it, since
  the run takes a few seconds;
* one small quick-sweep report per serving-sweep flag that the quick
  reports leave unread (``--arrival``, ``--overloads``, ``--fault-policies``
  and ``--eval-games``), digests recorded before the sweeps moved onto one
  runner;
* ``asdict(server.stats)`` plus the SLO report of one overloaded, keyed run
  with frame drop and frame corrupt faults, so sheds, retries, admission
  cache hits and stream resynchronization all cross the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments import cli
from repro.faults import FRAME_CORRUPT, FRAME_DROP, FaultEvent, FaultPlan
from repro.minigo import PolicyValueNet
from repro.serving import (
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    build_slo_report,
    run_serving,
)

#: SHA-256 of the file ``servesweep --quick --out FILE`` writes.
SERVESWEEP_QUICK_SHA256 = (
    "4e6c103072297fbb359c9516ca02bae94d37122d246a5952615cadc97b9083e9")
#: SHA-256 of the file ``cachesweep --quick --out FILE`` writes.
CACHESWEEP_QUICK_SHA256 = (
    "9a85bb08d6a917684985fab6e32ce122cedd95285534ceb1dd30b77bc13fa24b")
#: SHA-256 of the file ``faultsweep --quick --out FILE`` writes.
FAULTSWEEP_QUICK_SHA256 = (
    "b8f7695ac9cf2305b3b3610dff13b9546e3429779c3c00166eca943091ea3a95")
#: SHA-256 of the file ``<argv> --out FILE`` writes, one small quick run per
#: otherwise unpinned flag.
FLAG_REPORT_SHA256 = {
    "servesweep-arrival-overloads":
        "1ee4a1a755099421258872e6c98c23c5b19e5e025d616323faa9857577451a5b",
    "faultsweep-policies":
        "a21eb96ffe324e5c503d0b08176385b9ae57f2ddd15a938e5fd8551b816767ae",
    "cachesweep-eval-games":
        "63611cb5c41e52a7f3fccf2fb3465aed4ac5f6a2c8b53445c23a860379209797",
}
FLAG_ARGV = {
    "servesweep-arrival-overloads": ["servesweep", "--quick", "--arrival", "bursty",
                                     "--overloads", "block,deadline-drop", "--rates", "1.0",
                                     "--clients", "32"],
    "faultsweep-policies": ["faultsweep", "--quick", "--fault-rates", "150",
                            "--fault-policies", "degrade", "--replicas", "2",
                            "--clients", "32"],
    "cachesweep-eval-games": ["cachesweep", "--quick", "--eval-games", "4"],
}
#: SHA-256 of ``repr(asdict(server.stats))`` + newline + the SLO report.
FAULTED_RUN_SHA256 = (
    "28512da10fbb3e82d87a4250449691c4b390a12835c85e065d29c30b0a28a0f4")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_report_digest(tmp_path, experiment: str, *argv: str) -> str:
    out = tmp_path / f"{experiment}.txt"
    assert cli.main([experiment, *(argv or ["--quick"]), "--out", str(out)]) == 0
    return _sha256(out.read_bytes())


def faulted_run_text() -> str:
    board = 5
    server = InferenceServer(
        PolicyValueNet(board, (16,), rng=np.random.default_rng(3)),
        num_replicas=2, max_batch=8, queue_capacity=24,
        overload="shed-newest", rate_limit_per_sec=6_000.0, rate_burst=2.0,
        flush_policy="timeout", flush_timeout_us=300.0, cache_capacity=16,
        keep_decision_log=True, seed=3,
        fault_plan=FaultPlan(events=(
            FaultEvent(1_500.0, FRAME_DROP),
            FaultEvent(2_500.0, FRAME_CORRUPT),
            FaultEvent(4_000.0, FRAME_CORRUPT),
            FaultEvent(5_500.0, FRAME_DROP),
        )))
    loadgen = LoadGenerator(PoissonProcess(250_000.0), 24,
                            feature_dim=3 * board * board,
                            request_deadline_us=1_500.0, key_space=300, seed=3)
    result = run_serving(server, loadgen, 8_000.0)
    return repr(asdict(server.stats)) + "\n" + build_slo_report(result).format()


def test_quick_servesweep_report_is_golden(tmp_path):
    assert _cli_report_digest(tmp_path, "servesweep") == SERVESWEEP_QUICK_SHA256


def test_quick_cachesweep_report_is_golden(tmp_path):
    assert _cli_report_digest(tmp_path, "cachesweep") == CACHESWEEP_QUICK_SHA256


def test_faulted_serving_run_is_golden():
    assert _sha256(faulted_run_text().encode("utf-8")) == FAULTED_RUN_SHA256


@pytest.mark.parametrize("case", sorted(FLAG_REPORT_SHA256))
def test_sweep_flag_report_is_golden(tmp_path, case):
    experiment, *argv = FLAG_ARGV[case]
    assert _cli_report_digest(tmp_path, experiment, *argv) == FLAG_REPORT_SHA256[case]
