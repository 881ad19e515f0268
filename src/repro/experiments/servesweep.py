"""Serve sweep: the networked inference tier under open-loop overload.

PRs 2–5 measured the *closed-loop* harness: lock-step self-play workers that
submit a leaf only after the previous one returns, so offered load can never
exceed service capacity.  The :mod:`repro.serving` tier faces the opposite
regime — open-loop arrivals that keep coming however far behind the server
falls — and this sweep measures its defences over **arrival rate (as a
multiple of measured capacity) × overload policy × replica count**.

For every grid point it runs thousands of Poisson (or bursty) arrivals from
``num_clients`` synthetic clients against an
:class:`~repro.serving.server.InferenceServer` and reports the SLO picture:
goodput, shed/retry/timeout rates, and p50/p95/p99 queue delay and
end-to-end latency.  The ``none`` policy point (admission off, window
unbounded) is the control: its tail delay grows with the backlog, which is
exactly the divergence `benchmarks/test_bench_serving.py` pins against the
bounded policies.

Arrival rates are expressed as capacity multiples so the sweep stays
meaningful if the cost model's constants change: capacity is measured first
with a deterministic probe (:func:`estimate_capacity_rows_per_sec`), then
``rate = multiplier x capacity x replicas``.

Everything — arrivals, client choice, feature rows, batch durations — is a
pure function of ``seed``, so the rendered report is byte-identical across
runs of the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from ..minigo.selfplay import PolicyValueNet
from ..serving import (
    OVERLOAD_POLICIES,
    BurstyProcess,
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    RetryPolicy,
    SLOReport,
    build_slo_report,
    estimate_capacity_rows_per_sec,
    run_serving,
)
from .sweep import SweepResult

#: Grid, server and traffic shape of the default sweep (and of the serving
#: bench).  ``retry=None`` is the default :class:`RetryPolicy`;
#: ``key_space`` switches every client to the keyed workload (features a
#: pure function of a per-request state key; see
#: :func:`~repro.serving.client.key_features`) and ``cache_capacity`` arms
#: the server's admission cache on that key — ``key_space`` alone keeps the
#: traffic identical while the server stays cacheless, which is the
#: apples-to-apples control the cache sweep compares against.
DEFAULT_SERVE_KWARGS = dict(
    #: Arrival rates as multiples of measured single-replica serving capacity.
    multipliers=(0.5, 1.0, 2.0),
    #: ``none`` is the no-admission control (unbounded window, everything
    #: admitted) the bounded policies are compared against.
    overloads=("none", *OVERLOAD_POLICIES),
    replica_counts=(1, 2),
    arrival="poisson",
    board_size=5,
    hidden=(16,),
    max_batch=8,
    queue_capacity=16,
    flush_timeout_us=300.0,
    rate_burst=4.0,
    num_clients=256,
    request_deadline_us=3_000.0,
    horizon_us=30_000.0,
    retry=None,
    cache_capacity=None,
    key_space=None,
    seed=0,
)


def _network(config: Dict[str, Any]) -> PolicyValueNet:
    return PolicyValueNet(config["board_size"], hidden=config["hidden"],
                          rng=np.random.default_rng(config["seed"]))


def serving_setup(config: Dict[str, Any], retry: RetryPolicy) -> None:
    """Fill in ``retry`` when the config has none and record the measured
    single-replica capacity in ``config``."""
    if config["retry"] is None:
        config["retry"] = retry
    config["capacity_rows_per_sec"] = estimate_capacity_rows_per_sec(
        lambda: _network(config), feature_dim=3 * config["board_size"] ** 2,
        max_batch=config["max_batch"], seed=config["seed"])


def serving_cell(config: Dict[str, Any], process, num_replicas: int, label: str,
                 key_space=None, **server_kwargs) -> SLOReport:
    """Serve ``process``'s open-loop traffic from ``num_clients`` clients for
    ``horizon_us`` and return the SLO report; ``server_kwargs`` set the
    admission, cache and fault arguments of the :class:`InferenceServer`."""
    seed = config["seed"]
    server = InferenceServer(
        _network(config), max_batch=config["max_batch"], rate_limit_per_sec=None,
        rate_burst=config["rate_burst"], flush_policy="timeout",
        flush_timeout_us=config["flush_timeout_us"], num_replicas=num_replicas,
        seed=seed, keep_decision_log=False, **server_kwargs)
    loadgen = LoadGenerator(process, config["num_clients"],
                            feature_dim=3 * config["board_size"] ** 2,
                            retry=config["retry"],
                            request_deadline_us=config["request_deadline_us"],
                            key_space=key_space, seed=seed)
    return build_slo_report(run_serving(server, loadgen, config["horizon_us"]), label=label)


def latency_p99(slo: SLOReport) -> str:
    return "n/a" if slo.latency_us is None else f"{slo.latency_us[99.0]:.0f}"


@dataclass
class ServeSweepPoint:
    """One (rate multiplier, overload policy, replicas) setting's SLO report."""

    multiplier: float
    rate_per_sec: float      #: offered arrival rate the multiplier resolves to
    num_replicas: int
    overload: str            #: an OVERLOAD_* policy, or "none" (admission off)
    slo: SLOReport


class ServeSweepResult(SweepResult):
    """Run the serving tier over the (rate, overload, replicas) grid."""

    defaults = DEFAULT_SERVE_KWARGS
    axes = (("multiplier", "multipliers"), ("num_replicas", "replica_counts"),
            ("overload", "overloads"))
    point_type = ServeSweepPoint
    key = ("multiplier", "overload", "num_replicas")
    columns = (
        ("xcap", 5, "{p.multiplier:.2f}"),
        ("repl", 4, "{p.num_replicas:d}"),
        ("overload", 13, "{p.overload}"),
        ("offered/s", 10, "{p.slo.offered_rate_per_sec:.1f}"),
        ("goodput/s", 10, "{p.slo.goodput_per_sec:.1f}"),
        ("shed%", 6, "{p.slo.shed_fraction:.1%}"),
        ("hit%", 6, "{p.slo.cache_hit_fraction:.1%}"),
        ("retry%", 6, "{p.slo.retry_fraction:.1%}"),
        ("late%", 6, "{p.slo.timeout_fraction:.1%}"),
        ("avail%", 7, "{p.slo.availability:.2%}"),
        ("redisp", 6, "{p.slo.redispatched_rows:d}"),
        ("blocked", 7, "{p.slo.blocked:d}"),
        ("qdelay p50/p95/p99 us", 22, lambda r, p: (
            "n/a" if p.slo.client_queue_delay_us is None else
            "/".join(f"{p.slo.client_queue_delay_us[q]:.0f}" for q in (50.0, 95.0, 99.0)))),
        ("latency p99 us", 14, lambda r, p: latency_p99(p.slo)),
    )

    def setup(self) -> None:
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}; "
                             "expected poisson or bursty")
        unknown = [o for o in self.overloads if o not in ("none", *OVERLOAD_POLICIES)]
        if unknown:
            raise ValueError(f"unknown overload policies {unknown}")
        serving_setup(self.config, RetryPolicy())

    def cell(self, multiplier: float, num_replicas: int, overload: str) -> Dict[str, Any]:
        rate = multiplier * self.capacity_rows_per_sec * num_replicas
        if self.arrival == "poisson":
            process = PoissonProcess(rate)
        else:
            # Same mean rate, modulated: calm at half, bursts at 3x.
            process = BurstyProcess(0.5 * rate, 3.0 * rate,
                                    mean_calm_us=self.horizon_us / 6.0,
                                    mean_burst_us=self.horizon_us / 12.0)
        admission_off = overload == "none"
        slo = serving_cell(
            self.config, process, num_replicas, f"x{multiplier:g}/{overload}/r{num_replicas}",
            key_space=self.key_space, name=f"serve_{overload}",
            queue_capacity=None if admission_off else self.queue_capacity,
            overload="shed-newest" if admission_off else overload,
            cache_capacity=self.cache_capacity)
        return dict(rate_per_sec=rate, slo=slo)

    def title(self):
        cache_txt = ("cache off" if self.cache_capacity is None
                     else f"cache={self.cache_capacity}")
        keys_txt = ("keyless rows" if self.key_space is None
                    else f"key_space={self.key_space}")
        return [
            f"Serve sweep: {self.arrival} arrivals from {self.num_clients} clients, "
            f"board={self.board_size}, max_batch={self.max_batch}, "
            f"window={self.queue_capacity}, flush timeout {self.flush_timeout_us:.0f}us, "
            f"deadline {self.request_deadline_us:.0f}us, "
            f"horizon {self.horizon_us / 1e6:.4f}s, {cache_txt}, {keys_txt}",
            f"measured capacity: {self.capacity_rows_per_sec:.0f} rows/s per replica "
            f"(rates below are multiples of capacity x replicas)"]

    def footer(self):
        return [
            "note: 'none' admits everything into an unbounded window — its tail "
            "queue delay grows with the backlog; bounded policies shed or block "
            "instead, keeping admitted requests' delay within the window"]


run_serve_sweep = ServeSweepResult.run
