"""Fault sweep: the serving tier under injected replica faults.

The serve sweep (PR 6) measured the admission defences against *load*; this
sweep measures the recovery machinery (PR 10) against *failures*.  Over a
**fault rate × admission policy × replica count** grid it runs the same
open-loop Poisson traffic while a seeded :class:`~repro.faults.plan.FaultPlan`
crashes replicas (with later recovery), slows them down, and drops or
corrupts wire frames — then reports what the fleet kept: goodput,
availability (fraction of replica capacity that stayed up), rows
re-dispatched off dead horizons, and corrupt frames survived.

The two policy arms isolate degraded-mode admission:

* ``degrade`` — capacity loss tightens the ingress window and every token
  bucket proportionally to surviving capacity, so overload surfaces as
  cheap early sheds instead of deadline misses on the survivors.
* ``full`` — the no-degrade control: admission stays at full-fleet
  capacity while replicas are down, queueing the backlog onto the
  survivors.

At fault rate 0 the plan is empty, the injector is never built, and every
run is bit-for-bit the fault-free serving tier — the identity the bench
(`benchmarks/test_bench_faults.py`) pins.  Every fault, recovery and
re-dispatch is an event in the server's decision log, so a fixed seed
replays the whole history line-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..faults.plan import FaultPlan
from ..serving import PoissonProcess, RetryPolicy, SLOReport
from .servesweep import latency_p99, serving_cell, serving_setup
from .sweep import SweepResult

#: The admission arms a fault sweep compares (see the module docstring).
FAULT_POLICIES = ("degrade", "full")

#: Grid, server and traffic shape of the default sweep (mirrors the serve
#: sweep); ``retry=None`` is a decorrelated-jitter :class:`RetryPolicy`.
DEFAULT_FAULT_KWARGS = dict(
    #: Replica crashes per virtual second of trace; 0 is the fault-free
    #: control every other point is compared against.
    crash_rates=(0.0, 50.0, 150.0),
    policies=FAULT_POLICIES,
    replica_counts=(2, 4),
    board_size=5,
    hidden=(16,),
    max_batch=8,
    # Deeper window + tighter deadline than the serve sweep: the degrade/full
    # contrast needs a backlog deep enough that queueing onto crash survivors
    # can cross the deadline — at window 16 nothing is ever late and degraded
    # admission has nothing to win.
    queue_capacity=192,
    flush_timeout_us=300.0,
    rate_burst=4.0,
    num_clients=128,
    request_deadline_us=2_000.0,
    horizon_us=30_000.0,
    load_multiplier=1.2,      #: offered rate as a multiple of fleet capacity
    mean_downtime_us=8_000.0,
    frame_loss_per_sec=20.0,
    frame_corrupt_per_sec=20.0,
    retry=None,
    seed=0,
)


@dataclass
class FaultSweepPoint:
    """One (fault rate, policy, replicas) setting's outcome."""

    crash_rate_per_sec: float
    policy: str               #: "degrade" | "full" (no-degrade control)
    num_replicas: int
    rate_per_sec: float       #: offered arrival rate
    plan_events: int          #: events in the seeded fault plan
    slo: SLOReport


class FaultSweepResult(SweepResult):
    """At each non-zero crash rate the plan is seeded from ``(seed, rate,
    policy-independent)`` — the *same* plan hits both policy arms, so the
    degrade/full comparison isolates the admission response, not the luck
    of the fault draw."""

    defaults = DEFAULT_FAULT_KWARGS
    axes = (("crash_rate_per_sec", "crash_rates"), ("num_replicas", "replica_counts"),
            ("policy", "policies"))
    point_type = FaultSweepPoint
    key = ("crash_rate_per_sec", "policy", "num_replicas")
    columns = (
        ("faults/s", 8, "{p.crash_rate_per_sec:.1f}"),
        ("policy", 8, "{p.policy}"),
        ("repl", 4, "{p.num_replicas:d}"),
        ("events", 6, "{p.plan_events:d}"),
        ("offered/s", 10, "{p.slo.offered_rate_per_sec:.1f}"),
        ("goodput/s", 10, "{p.slo.goodput_per_sec:.1f}"),
        ("shed%", 6, "{p.slo.shed_fraction:.1%}"),
        ("late%", 6, "{p.slo.timeout_fraction:.1%}"),
        ("avail%", 7, "{p.slo.availability:.2%}"),
        ("crash", 5, "{p.slo.replica_crashes:d}"),
        ("redisp", 6, "{p.slo.redispatched_rows:d}"),
        ("corrupt", 7, "{p.slo.corrupt_frames:d}"),
        ("latency p99 us", 14, lambda r, p: latency_p99(p.slo)),
    )

    def setup(self) -> None:
        if any(rate < 0 for rate in self.crash_rates):
            raise ValueError("crash_rates must be non-negative")
        unknown = [p for p in self.policies if p not in FAULT_POLICIES]
        if unknown:
            raise ValueError(f"unknown fault policies {unknown}")
        serving_setup(self.config, RetryPolicy(jitter="decorrelated"))

    def cell(self, crash_rate_per_sec: float, num_replicas: int, policy: str) -> Dict[str, Any]:
        rate = self.load_multiplier * self.capacity_rows_per_sec * num_replicas
        plan = None
        if crash_rate_per_sec > 0.0:
            # Mix rate into the plan seed with a large odd stride so
            # neighbouring (seed, rate) cells get decorrelated draws.
            plan = FaultPlan.seeded(
                (self.seed + 1) * 100_003 + int(round(crash_rate_per_sec)),
                horizon_us=self.horizon_us,
                num_replicas=num_replicas,
                crash_rate_per_sec=crash_rate_per_sec,
                mean_downtime_us=self.mean_downtime_us,
                frame_loss_per_sec=self.frame_loss_per_sec,
                frame_corrupt_per_sec=self.frame_corrupt_per_sec)
        slo = serving_cell(
            self.config, PoissonProcess(rate), num_replicas,
            f"f{crash_rate_per_sec:g}/{policy}/r{num_replicas}", name=f"fault_{policy}",
            queue_capacity=self.queue_capacity, overload="shed-newest",
            fault_plan=plan, degraded_admission=policy == "degrade")
        return dict(rate_per_sec=rate, plan_events=0 if plan is None else len(plan.events),
                    slo=slo)

    def title(self):
        return [
            f"Fault sweep: poisson arrivals from {self.num_clients} clients at "
            f"{self.load_multiplier:g}x fleet capacity, board={self.board_size}, "
            f"max_batch={self.max_batch}, window={self.queue_capacity}, "
            f"deadline {self.request_deadline_us:.0f}us, "
            f"horizon {self.horizon_us / 1e6:.4f}s",
            f"measured capacity: {self.capacity_rows_per_sec:.0f} rows/s per "
            f"replica; crash rate is injected replica crashes per virtual "
            f"second (with seeded recovery), plus frame loss/corruption"]

    def footer(self):
        return [
            "note: 'full' keeps full-capacity admission while replicas are "
            "down (the no-degrade control); 'degrade' tightens the ingress "
            "window and token buckets to surviving capacity, trading early "
            "sheds for fewer deadline misses on the survivors"]


run_fault_sweep = FaultSweepResult.run
