"""Benchmark: the serving tier's overload defences and their acceptance bars.

The serve sweep (``rls-experiment servesweep``) measures the networked
inference tier of :mod:`repro.serving` under open-loop Poisson traffic.  This
benchmark pins the claims the subsystem exists to make, at full scale
(256 clients, 2x measured capacity):

* **Bounded tail under admission control** — with the ``shed-newest`` policy
  the p99 queue delay of *admitted* requests stays within the request
  deadline, however long the trace runs.
* **Unbounded tail without it** — the ``none`` control (admission off,
  window unbounded) admits everything and its p99 queue delay grows with
  trace length: doubling the horizon strictly increases it.  Backlog merely
  moves, it never clears.
* **Determinism** — the same seed and configuration reproduce the rendered
  sweep report byte-for-byte and the server's decision log line-for-line.

Outputs:

* the rendered sweep table, printed (the committed ``results/serve_sweep.txt``
  is the full grid, and only ``rls-experiment servesweep`` writes it);
* a ``serving`` block in the untracked bench record ``BENCH_wallclock.json``
  (requests/sec of the serving harness, goodput, shed rate, tail delays),
  written by ``benchmarks/record.py``.

Set ``SERVING_QUICK=1`` (the CI smoke step does) for a shorter horizon with
the same assertions and client count.
"""

from __future__ import annotations

import os
import time

from record import record
from repro.experiments import DEFAULT_SERVE_KWARGS, run_serve_sweep
from repro.minigo import PolicyValueNet
from repro.serving import (
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    build_slo_report,
    estimate_capacity_rows_per_sec,
    run_serving,
)

import numpy as np

QUICK = os.environ.get("SERVING_QUICK") == "1"

#: The acceptance-bar scenario: >=256 clients at 2x measured capacity.
NUM_CLIENTS = 256
OVERLOAD_MULTIPLIER = 2.0
HORIZON_US = 10_000.0 if QUICK else DEFAULT_SERVE_KWARGS["horizon_us"]
DEADLINE_US = DEFAULT_SERVE_KWARGS["request_deadline_us"]
SEED = 0


def _sweep(horizon_us: float):
    return run_serve_sweep(
        (OVERLOAD_MULTIPLIER,), overloads=("none", "shed-newest"),
        replica_counts=(1,), num_clients=NUM_CLIENTS, horizon_us=horizon_us,
        seed=SEED)


def _logged_run():
    """One shed-newest overload run with the decision log enabled."""
    board = DEFAULT_SERVE_KWARGS["board_size"]
    feature_dim = 3 * board * board

    def make_network():
        return PolicyValueNet(board, hidden=DEFAULT_SERVE_KWARGS["hidden"],
                              rng=np.random.default_rng(SEED))

    capacity = estimate_capacity_rows_per_sec(
        make_network, feature_dim=feature_dim,
        max_batch=DEFAULT_SERVE_KWARGS["max_batch"], seed=SEED)
    server = InferenceServer(
        make_network(),
        max_batch=DEFAULT_SERVE_KWARGS["max_batch"],
        queue_capacity=DEFAULT_SERVE_KWARGS["queue_capacity"],
        overload="shed-newest",
        flush_policy="timeout",
        flush_timeout_us=DEFAULT_SERVE_KWARGS["flush_timeout_us"],
        seed=SEED)
    loadgen = LoadGenerator(
        PoissonProcess(OVERLOAD_MULTIPLIER * capacity), NUM_CLIENTS,
        feature_dim=feature_dim, request_deadline_us=DEADLINE_US, seed=SEED)
    result = run_serving(server, loadgen, 10_000.0)
    return server.decision_log_lines(), build_slo_report(result).format()


def test_bench_serving_overload(benchmark):
    start = time.perf_counter()
    sweep = benchmark.pedantic(lambda: _sweep(HORIZON_US), rounds=1, iterations=1)
    sweep_s = time.perf_counter() - start

    bounded = sweep.point(OVERLOAD_MULTIPLIER, "shed-newest", 1).slo
    control = sweep.point(OVERLOAD_MULTIPLIER, "none", 1).slo

    # --- the tail bar: admission control keeps admitted requests' p99 queue
    # delay inside the request deadline; the no-admission control does not.
    assert bounded.client_queue_delay_us is not None
    bounded_p99 = bounded.client_queue_delay_us[99.0]
    control_p99 = control.client_queue_delay_us[99.0]
    assert bounded_p99 <= DEADLINE_US, (
        f"shed-newest must bound p99 queue delay within the {DEADLINE_US:.0f}us "
        f"deadline at {OVERLOAD_MULTIPLIER}x overload, got {bounded_p99:.0f}us")
    assert control_p99 > DEADLINE_US, (
        f"the no-admission control should blow through the deadline at "
        f"{OVERLOAD_MULTIPLIER}x overload, got p99 {control_p99:.0f}us")
    assert bounded.goodput_per_sec > control.goodput_per_sec, \
        "shedding must convert into goodput: late answers are not answers"

    # --- divergence with trace length: the unbounded backlog keeps growing,
    # the bounded window does not.
    longer = _sweep(2.0 * HORIZON_US)
    longer_control_p99 = longer.point(
        OVERLOAD_MULTIPLIER, "none", 1).slo.client_queue_delay_us[99.0]
    longer_bounded_p99 = longer.point(
        OVERLOAD_MULTIPLIER, "shed-newest", 1).slo.client_queue_delay_us[99.0]
    assert longer_control_p99 > control_p99, (
        f"without admission control p99 queue delay must grow with the trace: "
        f"{control_p99:.0f}us at T vs {longer_control_p99:.0f}us at 2T")
    assert longer_bounded_p99 <= DEADLINE_US, \
        "the bounded window's tail must not grow with the trace"

    # --- determinism: same seed + config => byte-identical report and
    # line-identical decision log.
    assert _sweep(HORIZON_US).report() == sweep.report()
    log_a, report_a = _logged_run()
    log_b, report_b = _logged_run()
    assert log_a == log_b, "the decision log must replay exactly under one seed"
    assert report_a == report_b
    assert any(" shed-queue " in line for line in log_a), \
        "the logged run must actually exercise the overload path"

    # --- the bench record's serving block.
    total_arrivals = bounded.arrivals + control.arrivals
    record("serving", {
        "quick": QUICK,
        "clients": NUM_CLIENTS,
        "overload_multiplier": OVERLOAD_MULTIPLIER,
        "horizon_us": HORIZON_US,
        "capacity_rows_per_sec": sweep.capacity_rows_per_sec,
        "harness_requests_per_sec": total_arrivals / sweep_s,
        "sweep_wall_s": sweep_s,
        "goodput_per_sec": bounded.goodput_per_sec,
        "shed_fraction": bounded.shed_fraction,
        "p99_queue_delay_us": {"shed-newest": bounded_p99, "none": control_p99},
    })

    report = sweep.report()
    print()
    print(report)
