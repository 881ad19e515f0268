"""``rls-experiment``: regenerate a table or figure of the paper from the command line.

Examples::

    rls-experiment table1
    rls-experiment fig4 --algo TD3 --timesteps 150
    rls-experiment fig5
    rls-experiment fig8
    rls-experiment fig11a --timesteps 100
    rls-experiment batchsweep --leaf-batches 1,4,16,64
    rls-experiment schedsweep --workers 8 --leaf-batches 1,4,8
    rls-experiment schedsweep --flush-policy timeout --timeout-us 500
    rls-experiment schedsweep --replicas 2 --routing least-loaded
    rls-experiment replicasweep --replicas 1,2,4 --workers 8
    rls-experiment fig8 --scheduler event --replicas 2
    rls-experiment servesweep --rates 0.5,2.0 --clients 256 --replicas 1,2
    rls-experiment servesweep --arrival bursty --overloads shed-newest,block
    rls-experiment servesweep --quick   # CI smoke: small trace, fast (prints only)
    rls-experiment zoosweep --sims Pong,Hopper --algos DQN,PPO
    rls-experiment zoosweep --worker-counts 4,8 --replicas 1,2
    rls-experiment zoosweep --quick     # CI smoke: 2 sims, 1 worker count
    rls-experiment cachesweep --worker-counts 4,8 --replicas 1,2
    rls-experiment cachesweep --quick   # CI smoke: 1 cell, cache off vs on
    rls-experiment faultsweep --fault-rates 0,150 --replicas 4
    rls-experiment faultsweep --quick   # CI smoke: fault-free vs one faulty cell
    rls-experiment findings          # run everything and check F.1-F.12
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence


def _number_list(convert, noun: str, *, allow_zero: bool = False):
    """argparse type: a comma-separated list of positive (or, with
    ``allow_zero``, non-negative) ``int`` or ``float`` values."""
    kind = "integers" if convert is int else "numbers"
    sign = "non-negative" if allow_zero else "positive"

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(value) for value in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}")
        if not values or any(value < 0 or (value == 0 and not allow_zero) for value in values):
            raise argparse.ArgumentTypeError(f"{noun} must be {sign}, got {text!r}")
        return values
    return parse


_leaf_batch_list = _number_list(int, "leaf batch sizes")
_replica_list = _number_list(int, "replica counts")
_rate_list = _number_list(float, "rate multipliers")
_fault_rate_list = _number_list(float, "fault rates", allow_zero=True)


def _write_report(text: str, args: argparse.Namespace, default: str) -> None:
    """Print a sweep report and write it to ``--out``, else to ``default``.

    A ``--quick`` report goes only where ``--out`` says: ``default`` holds
    the full grid's committed report.
    """
    print(text)
    out = args.out if args.out is not None or args.quick else default
    if out is None:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _name_list(text: str) -> tuple:
    values = tuple(value.strip() for value in text.split(",") if value.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated names, got {text!r}")
    return values


def _overload_list(text: str) -> tuple:
    values = tuple(value.strip() for value in text.split(","))
    allowed = ("none", "block", "shed-newest", "shed-oldest", "deadline-drop")
    bad = [value for value in values if value not in allowed]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown overload policies {bad}; choose from {', '.join(allowed)}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rls-experiment", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment",
                        choices=["table1", "fig4", "fig5", "fig7", "fig8", "fig11a", "fig11b",
                                 "batchsweep", "schedsweep", "replicasweep", "servesweep",
                                 "zoosweep", "cachesweep", "faultsweep", "findings"])
    parser.add_argument("--algo", default="TD3", help="algorithm for fig4 (TD3 or DDPG)")
    parser.add_argument("--timesteps", type=int, default=None, help="steps per workload (default: experiment-specific)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--leaf-batches", type=_leaf_batch_list, default=None,
                        help="comma-separated leaf batch sizes for batchsweep/schedsweep "
                             "(defaults: 1,4,16,64 / 1,4,8)")
    parser.add_argument("--workers", type=int, default=None,
                        help="self-play workers for schedsweep/replicasweep (default: 8 / 4,8)")
    parser.add_argument("--replicas", type=_replica_list, default=None,
                        help="inference replicas: a single count for fig8/schedsweep, a "
                             "comma-separated list for replicasweep (default: 1 / 1,2,4)")
    parser.add_argument("--routing", choices=["round-robin", "least-loaded", "sticky"],
                        default=None,
                        help="replica routing policy for fig8/schedsweep (replicasweep "
                             "sweeps every policy unless one is given)")
    parser.add_argument("--scheduler", choices=["sequential", "event"], default=None,
                        help="self-play scheduler for fig8 (event implies batched inference)")
    parser.add_argument("--flush-policy", choices=["max-batch", "timeout", "unbatched"],
                        default=None,
                        help="how the event-driven scheduler departs inference batches "
                             "(fig8/schedsweep default: max-batch; replicasweep default: "
                             "timeout 50us)")
    parser.add_argument("--timeout-us", type=float, default=None,
                        help="partial-batch deadline in virtual us (flush policy 'timeout')")
    parser.add_argument("--rates", type=_rate_list, default=None,
                        help="servesweep arrival rates as comma-separated multiples of "
                             "measured capacity (default: 0.5,1.0,2.0)")
    parser.add_argument("--clients", type=int, default=None,
                        help="servesweep synthetic client count (default: 256)")
    parser.add_argument("--arrival", choices=["poisson", "bursty"], default=None,
                        help="servesweep arrival process (default: poisson)")
    parser.add_argument("--overloads", type=_overload_list, default=None,
                        help="servesweep overload policies, comma-separated from "
                             "none,block,shed-newest,shed-oldest,deadline-drop "
                             "(default: all)")
    parser.add_argument("--sims", type=_name_list, default=None,
                        help="zoosweep simulators, comma-separated registry names "
                             "(default: Pong,Hopper,Walker2D,HalfCheetah)")
    parser.add_argument("--algos", type=_name_list, default=None,
                        help="zoosweep algorithm families, comma-separated from "
                             "DQN,PPO,DDPG (default: all)")
    parser.add_argument("--worker-counts", type=_number_list(int, "worker counts"),
                        default=None,
                        help="zoosweep worker-count grid, comma-separated "
                             "(default: 4,8)")
    parser.add_argument("--trace-dir", default=None,
                        help="zoosweep: stream every batched cell's profiler trace "
                             "into per-cell TraceDB directories under this path")
    parser.add_argument("--eval-games", type=_number_list(int, "evaluation game counts"),
                        default=None,
                        help="cachesweep: evaluation-round sizes, comma-separated "
                             "(default: 2,4)")
    parser.add_argument("--fault-rates", type=_fault_rate_list, default=None,
                        help="faultsweep replica crash rates per virtual second, "
                             "comma-separated; 0 is the fault-free control "
                             "(default: 0,50,150)")
    parser.add_argument("--fault-policies", type=_name_list, default=None,
                        help="faultsweep admission arms, comma-separated from "
                             "degrade,full (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="servesweep/zoosweep/cachesweep/faultsweep smoke "
                             "mode: a small grid (the CI configuration); its "
                             "report is written only to --out")
    parser.add_argument("--out", default=None,
                        help="servesweep/zoosweep/cachesweep/faultsweep: also "
                             "write the report to this path (default without "
                             "--quick: results/serve_sweep.txt / "
                             "results/zoo_sweep.txt / results/cache_sweep.txt / "
                             "results/fault_sweep.txt)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment in ("fig8", "schedsweep") and args.replicas and len(args.replicas) > 1:
        parser.error(f"{args.experiment} takes a single --replicas count "
                     "(a list is only meaningful for replicasweep)")
    if args.experiment == "replicasweep" and args.leaf_batches and len(args.leaf_batches) > 1:
        parser.error("replicasweep takes a single --leaf-batches value "
                     "(a list is only meaningful for batchsweep/schedsweep)")
    from . import (
        DEFAULT_LEAF_BATCHES, run_batch_sweep,
        DEFAULT_SCHED_LEAF_BATCHES, DEFAULT_SCHED_WORKERS, run_sched_sweep,
        DEFAULT_REPLICA_COUNTS, DEFAULT_REPLICA_ROUTINGS, DEFAULT_REPLICA_WORKERS,
        run_replica_sweep,
        run_serve_sweep,
        run_zoo_sweep,
        run_fig4, run_fig5, run_fig7, run_fig8, run_fig11a, run_fig11b, run_table1, table1, findings,
    )
    from .common import DEFAULT_TIMESTEPS
    from .fig11 import DEFAULT_FIG11_TIMESTEPS

    steps = args.timesteps if args.timesteps is not None else DEFAULT_TIMESTEPS
    fig11_steps = args.timesteps if args.timesteps is not None else DEFAULT_FIG11_TIMESTEPS

    if args.experiment == "table1":
        print(table1.report(run_table1()))
    elif args.experiment == "fig4":
        print(run_fig4(args.algo, timesteps=steps, seed=args.seed).report())
    elif args.experiment == "fig5":
        print(run_fig5(timesteps=steps, seed=args.seed).report())
    elif args.experiment == "fig7":
        print(run_fig7(timesteps=steps, seed=args.seed).report())
    elif args.experiment == "fig8":
        print(run_fig8(scheduler=args.scheduler, flush_policy=args.flush_policy,
                       flush_timeout_us=args.timeout_us,
                       num_replicas=args.replicas[0] if args.replicas else None,
                       routing=args.routing).report())  # flush_policy=None keeps the config default
    elif args.experiment == "fig11a":
        print(run_fig11a(timesteps=fig11_steps, seed=args.seed).report())
    elif args.experiment == "fig11b":
        print(run_fig11b(timesteps=fig11_steps, seed=args.seed).report())
    elif args.experiment == "batchsweep":
        batches = args.leaf_batches if args.leaf_batches is not None else DEFAULT_LEAF_BATCHES
        print(run_batch_sweep(batches, seed=args.seed).report())
    elif args.experiment == "schedsweep":
        batches = args.leaf_batches if args.leaf_batches is not None else DEFAULT_SCHED_LEAF_BATCHES
        workers = args.workers if args.workers is not None else DEFAULT_SCHED_WORKERS
        print(run_sched_sweep(batches, num_workers=workers, seed=args.seed,
                              num_replicas=args.replicas[0] if args.replicas else 1,
                              routing=args.routing or "round-robin",
                              flush_policy=args.flush_policy or "max-batch",
                              flush_timeout_us=args.timeout_us).report())
    elif args.experiment == "replicasweep":
        replicas = args.replicas if args.replicas is not None else DEFAULT_REPLICA_COUNTS
        worker_counts = (args.workers,) if args.workers is not None else DEFAULT_REPLICA_WORKERS
        routings = (args.routing,) if args.routing is not None else DEFAULT_REPLICA_ROUTINGS
        sweep_kwargs = {}
        if args.leaf_batches is not None:
            sweep_kwargs["leaf_batch"] = args.leaf_batches[0]
        if args.flush_policy is not None:
            sweep_kwargs["flush_policy"] = args.flush_policy
            if args.flush_policy != "timeout":
                sweep_kwargs["flush_timeout_us"] = None
        if args.timeout_us is not None:
            sweep_kwargs["flush_timeout_us"] = args.timeout_us
        print(run_replica_sweep(replicas, worker_counts=worker_counts,
                                routings=routings, seed=args.seed,
                                **sweep_kwargs).report())
    elif args.experiment == "servesweep":
        sweep_kwargs = {}
        if args.rates is not None:
            sweep_kwargs["multipliers"] = args.rates
        if args.overloads is not None:
            sweep_kwargs["overloads"] = args.overloads
        if args.replicas is not None:
            sweep_kwargs["replica_counts"] = args.replicas
        if args.clients is not None:
            sweep_kwargs["num_clients"] = args.clients
        if args.arrival is not None:
            sweep_kwargs["arrival"] = args.arrival
        if args.quick:
            # CI smoke: a 2-point grid over a short trace, small client fleet.
            sweep_kwargs.setdefault("multipliers", (0.5, 2.0))
            sweep_kwargs.setdefault("overloads", ("none", "shed-newest"))
            sweep_kwargs.setdefault("replica_counts", (1,))
            sweep_kwargs.setdefault("num_clients", 64)
            sweep_kwargs["horizon_us"] = 10_000.0
        result = run_serve_sweep(seed=args.seed, **sweep_kwargs)
        _write_report(result.report(), args, "results/serve_sweep.txt")
    elif args.experiment == "zoosweep":
        from .zoosweep import DEFAULT_ZOO_STEPS
        sweep_kwargs = {}
        if args.sims is not None:
            sweep_kwargs["sims"] = args.sims
        if args.algos is not None:
            sweep_kwargs["algorithms"] = args.algos
        if args.worker_counts is not None:
            sweep_kwargs["worker_counts"] = args.worker_counts
        if args.replicas is not None:
            sweep_kwargs["replica_counts"] = args.replicas
        if args.quick:
            # CI smoke: two sims, one worker count, single replica.
            sweep_kwargs.setdefault("sims", ("Pong", "Hopper"))
            sweep_kwargs.setdefault("worker_counts", (4,))
            sweep_kwargs.setdefault("replica_counts", (1,))
            sweep_kwargs.setdefault("steps_per_worker", 6)
        quick_steps = sweep_kwargs.pop("steps_per_worker", DEFAULT_ZOO_STEPS)
        steps_per_worker = args.timesteps if args.timesteps is not None else quick_steps
        result = run_zoo_sweep(seed=args.seed, steps_per_worker=steps_per_worker,
                               trace_dir=args.trace_dir, **sweep_kwargs)
        _write_report(result.report(), args, "results/zoo_sweep.txt")
    elif args.experiment == "cachesweep":
        from . import run_cache_sweep
        sweep_kwargs = {}
        if args.worker_counts is not None:
            sweep_kwargs["worker_counts"] = args.worker_counts
        if args.replicas is not None:
            sweep_kwargs["replica_counts"] = args.replicas
        if args.eval_games is not None:
            sweep_kwargs["evaluation_games"] = args.eval_games
        if args.quick:
            # CI smoke: one small cell, still cache off vs on with the win
            # parity and reduction columns.
            sweep_kwargs.setdefault("worker_counts", (2,))
            sweep_kwargs.setdefault("replica_counts", (1,))
            sweep_kwargs.setdefault("evaluation_games", (2,))
            sweep_kwargs.setdefault("max_moves", 4)
        result = run_cache_sweep(seed=args.seed, **sweep_kwargs)
        _write_report(result.report(), args, "results/cache_sweep.txt")
    elif args.experiment == "faultsweep":
        from . import run_fault_sweep
        sweep_kwargs = {}
        if args.fault_rates is not None:
            sweep_kwargs["crash_rates"] = args.fault_rates
        if args.fault_policies is not None:
            sweep_kwargs["policies"] = args.fault_policies
        if args.replicas is not None:
            sweep_kwargs["replica_counts"] = args.replicas
        if args.clients is not None:
            sweep_kwargs["num_clients"] = args.clients
        if args.quick:
            # CI smoke: fault-free control vs one faulty cell, both arms,
            # over a short trace with a small client fleet.
            sweep_kwargs.setdefault("crash_rates", (0.0, 150.0))
            sweep_kwargs.setdefault("replica_counts", (4,))
            sweep_kwargs.setdefault("num_clients", 64)
            sweep_kwargs["horizon_us"] = 15_000.0
        crash_rates = sweep_kwargs.pop("crash_rates", None)
        if crash_rates is not None:
            result = run_fault_sweep(crash_rates, seed=args.seed, **sweep_kwargs)
        else:
            result = run_fault_sweep(seed=args.seed, **sweep_kwargs)
        _write_report(result.report(), args, "results/fault_sweep.txt")
    elif args.experiment == "findings":
        fig4_td3 = run_fig4("TD3", timesteps=steps, seed=args.seed)
        fig4_ddpg = run_fig4("DDPG", timesteps=steps, seed=args.seed)
        fig5 = run_fig5(timesteps=steps, seed=args.seed)
        fig7 = run_fig7(timesteps=steps, seed=args.seed)
        fig8 = run_fig8()
        checks = findings.check_all(fig4_td3=fig4_td3, fig4_ddpg=fig4_ddpg, fig5=fig5,
                                    fig7=fig7, fig8=fig8)
        for finding in checks.values():
            print(finding)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
