"""Benchmark: the fault-injection machinery's recovery floors, pinned.

ISSUE 10's fault tolerance spans three layers; this benchmark pins the
serving-tier guarantees on pinned workloads (the parallel-tier byte-identity
bars live in ``tests/test_faults.py`` where respawning real processes is
cheap relative to the suite):

* **Empty-plan identity** — a server built with ``fault_plan=None`` and one
  built with an empty :class:`~repro.faults.plan.FaultPlan` must produce
  byte-identical decision logs and SLO reports: fault support must cost
  nothing when unused.
* **1-of-4 replica crash** — a 12ms crash of one replica in four under
  1.2x fleet overload must lose **zero requests** (every request reaches a
  terminal outcome), re-dispatch the dead replica's planned rows onto
  survivors, report availability exactly 0.9, and keep degraded-mode
  goodput **>= the no-degrade control**.
* **1-of-2 replica crash** — halving the fleet is where degraded admission
  pays: the degrade arm must beat the control on goodput **and** deadline
  misses (the control queues a full window onto the survivor and serves it
  late).
* **Replay** — a seeded plan's run, fault lines included, must replay
  line-identically under one seed.

Outputs:

* the rendered fault-sweep table, printed (the committed ``results/fault_sweep.txt``
  is the full grid, and only ``rls-experiment faultsweep`` writes it);
* a ``faults`` block in the untracked bench record ``BENCH_wallclock.json``,
  written by ``benchmarks/record.py`` (whose CI check fails when the block is
  missing or stale).

Set ``FAULTS_QUICK=1`` (the CI smoke step does) for smaller workloads with
the same assertions.
"""

from __future__ import annotations

import os

import numpy as np

from record import record
from repro.experiments import DEFAULT_FAULT_KWARGS, run_fault_sweep
from repro.faults import (
    FaultEvent,
    FaultPlan,
    REPLICA_CRASH,
    REPLICA_RECOVER,
)
from repro.minigo import PolicyValueNet
from repro.serving import (
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    build_slo_report,
    estimate_capacity_rows_per_sec,
    run_serving,
)

QUICK = os.environ.get("FAULTS_QUICK") == "1"
SEED = 0

BOARD = DEFAULT_FAULT_KWARGS["board_size"]
FEATURE_DIM = 3 * BOARD * BOARD
HORIZON_US = 15_000.0 if QUICK else DEFAULT_FAULT_KWARGS["horizon_us"]
CLIENTS = 64 if QUICK else DEFAULT_FAULT_KWARGS["num_clients"]
LOAD_MULTIPLIER = DEFAULT_FAULT_KWARGS["load_multiplier"]

#: One replica crashes a quarter into the trace and recovers at 65% — a
#: 0.4-horizon outage, so fleet availability is exactly 1 - 0.4/replicas.
CRASH_AT = 0.25 * HORIZON_US
RECOVER_AT = 0.65 * HORIZON_US


def _make_network():
    return PolicyValueNet(BOARD, hidden=DEFAULT_FAULT_KWARGS["hidden"],
                          rng=np.random.default_rng(SEED))


def _single_crash_plan() -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(CRASH_AT, REPLICA_CRASH, 1),
        FaultEvent(RECOVER_AT, REPLICA_RECOVER, 1),
    ))


def _fault_run(plan, *, num_replicas: int, degraded: bool, keep_log: bool = False,
               capacity: float):
    """One 1.2x-overload run; same seed => identical offered load."""
    server = InferenceServer(
        _make_network(),
        max_batch=DEFAULT_FAULT_KWARGS["max_batch"],
        queue_capacity=DEFAULT_FAULT_KWARGS["queue_capacity"],
        overload="shed-newest",
        rate_limit_per_sec=None,
        flush_policy="timeout",
        flush_timeout_us=DEFAULT_FAULT_KWARGS["flush_timeout_us"],
        num_replicas=num_replicas,
        seed=SEED,
        keep_decision_log=keep_log,
        fault_plan=plan,
        degraded_admission=degraded)
    loadgen = LoadGenerator(
        PoissonProcess(LOAD_MULTIPLIER * capacity * num_replicas), CLIENTS,
        feature_dim=FEATURE_DIM,
        request_deadline_us=DEFAULT_FAULT_KWARGS["request_deadline_us"],
        seed=SEED)
    result = run_serving(server, loadgen, HORIZON_US)
    return server, build_slo_report(result)


def _lost(slo) -> int:
    """Requests that never reached a terminal outcome (must be zero)."""
    return slo.requests - slo.completed - slo.gave_up


def test_bench_faults(benchmark):
    capacity = estimate_capacity_rows_per_sec(
        _make_network, feature_dim=FEATURE_DIM,
        max_batch=DEFAULT_FAULT_KWARGS["max_batch"], seed=SEED)

    # --- empty-plan identity: fault support must cost nothing when unused.
    server_none, slo_none = _fault_run(None, num_replicas=4, degraded=True,
                                       keep_log=True, capacity=capacity)
    server_empty, slo_empty = _fault_run(FaultPlan(), num_replicas=4,
                                         degraded=True, keep_log=True,
                                         capacity=capacity)
    assert server_none.decision_log_lines() == server_empty.decision_log_lines(), \
        "an empty FaultPlan must leave the decision log byte-identical"
    assert slo_none.format() == slo_empty.format(), \
        "an empty FaultPlan must leave the SLO report byte-identical"
    assert slo_none.availability == 1.0 and slo_none.replica_crashes == 0

    # --- 1-of-4 crash: zero lost requests, degrade >= no-degrade control.
    plan = _single_crash_plan()
    _, slo_degrade = benchmark.pedantic(
        lambda: _fault_run(plan, num_replicas=4, degraded=True,
                           capacity=capacity),
        rounds=1, iterations=1)
    _, slo_full = _fault_run(plan, num_replicas=4, degraded=False,
                             capacity=capacity)
    for label, slo in (("degrade", slo_degrade), ("full", slo_full)):
        assert _lost(slo) == 0, (
            f"{label}: {_lost(slo)} requests vanished without a terminal "
            f"outcome under a 1-of-4 replica crash")
        assert slo.replica_crashes == 1 and slo.replica_recoveries == 1
        assert slo.redispatched_rows > 0, \
            f"{label}: the dead replica's planned rows must re-dispatch"
        assert abs(slo.availability - 0.9) < 1e-9, slo.availability
    assert slo_degrade.requests == slo_full.requests, \
        "both arms must face identical offered load (same seed)"
    assert slo_degrade.goodput_per_sec >= slo_full.goodput_per_sec, (
        f"degraded-mode admission must not lose goodput vs the no-degrade "
        f"control under a 1-of-4 crash: degrade {slo_degrade.goodput_per_sec:.1f} "
        f"vs full {slo_full.goodput_per_sec:.1f} req/s")
    assert slo_degrade.degraded_entries == 1 and slo_full.degraded_entries == 0

    # --- 1-of-2 crash: halving the fleet is where degraded admission pays.
    _, slo2_degrade = _fault_run(plan, num_replicas=2, degraded=True,
                                 capacity=capacity)
    _, slo2_full = _fault_run(plan, num_replicas=2, degraded=False,
                              capacity=capacity)
    assert _lost(slo2_degrade) == 0 and _lost(slo2_full) == 0
    assert slo2_degrade.goodput_per_sec > slo2_full.goodput_per_sec, (
        f"under a 1-of-2 crash the degrade arm must beat the control: "
        f"degrade {slo2_degrade.goodput_per_sec:.1f} vs "
        f"full {slo2_full.goodput_per_sec:.1f} req/s")
    assert slo2_degrade.timeout_fraction < slo2_full.timeout_fraction, (
        f"degraded admission must trade sheds for deadline misses: "
        f"degrade late {slo2_degrade.timeout_fraction:.4f} vs "
        f"full {slo2_full.timeout_fraction:.4f}")

    # --- replay: the fault-annotated decision log is a pure function of
    # (plan, workload, seed).
    server_a, _ = _fault_run(plan, num_replicas=4, degraded=True,
                             keep_log=True, capacity=capacity)
    server_b, _ = _fault_run(plan, num_replicas=4, degraded=True,
                             keep_log=True, capacity=capacity)
    log_a, log_b = server_a.decision_log_lines(), server_b.decision_log_lines()
    assert log_a == log_b, \
        "the fault-annotated decision log must replay exactly under one seed"
    for marker in (REPLICA_CRASH, REPLICA_RECOVER, "degrade", "restore"):
        assert any(f" {marker} " in line or line.split(" ", 2)[1] == marker
                   for line in log_a), f"expected a {marker!r} line in the log"

    # --- the sweep table (the CLI artifact, regenerated here too).
    sweep = run_fault_sweep(seed=SEED, **(
        dict(crash_rates=(0.0, 150.0), replica_counts=(4,), num_clients=64,
             horizon_us=15_000.0) if QUICK else {}))
    for rate in ({0.0, 150.0} if QUICK else {0.0, 50.0, 150.0}):
        for replicas in ((4,) if QUICK else (2, 4)):
            a = sweep.point(rate, "degrade", replicas).slo
            b = sweep.point(rate, "full", replicas).slo
            if rate == 0.0:
                # lines()[0] carries the per-arm label; the rest is the run.
                assert a.lines()[1:] == b.lines()[1:], \
                    "fault-free sweep arms must be bit-identical"

    # --- the bench record's faults block.
    record("faults", {
        "quick": QUICK,
        "scenario": {
            "replicas": 4,
            "clients": CLIENTS,
            "load_multiplier": LOAD_MULTIPLIER,
            "horizon_us": HORIZON_US,
            "crash_at_us": CRASH_AT,
            "recover_at_us": RECOVER_AT,
            "queue_capacity": DEFAULT_FAULT_KWARGS["queue_capacity"],
            "request_deadline_us": DEFAULT_FAULT_KWARGS["request_deadline_us"],
        },
        "crash_1_of_4": {
            "lost_requests": _lost(slo_degrade),
            "redispatched_rows": slo_degrade.redispatched_rows,
            "availability": slo_degrade.availability,
            "goodput_degrade_per_sec": slo_degrade.goodput_per_sec,
            "goodput_full_per_sec": slo_full.goodput_per_sec,
        },
        "crash_1_of_2": {
            "goodput_degrade_per_sec": slo2_degrade.goodput_per_sec,
            "goodput_full_per_sec": slo2_full.goodput_per_sec,
            "late_fraction_degrade": slo2_degrade.timeout_fraction,
            "late_fraction_full": slo2_full.timeout_fraction,
        },
        "empty_plan_identical": True,
        "replay_identical": True,
        "decision_log_lines": len(log_a),
    })

    report = sweep.report()
    print()
    print(report)
    print()
    print(f"1-of-4 crash: goodput degrade {slo_degrade.goodput_per_sec:.1f} vs "
          f"full {slo_full.goodput_per_sec:.1f} req/s, "
          f"{slo_degrade.redispatched_rows} rows re-dispatched, "
          f"availability {slo_degrade.availability:.4f}; "
          f"1-of-2 crash: degrade {slo2_degrade.goodput_per_sec:.1f} vs "
          f"full {slo2_full.goodput_per_sec:.1f} req/s "
          f"(late {slo2_degrade.timeout_fraction:.4f} vs "
          f"{slo2_full.timeout_fraction:.4f})")
