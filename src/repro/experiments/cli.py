"""``rls-experiment``: regenerate a table or figure of the paper from the command line.

Each experiment reads the flags of its row in :data:`EXPERIMENTS`; any other
flag is an error, as is a list given to a flag the experiment reads as one
value.  The full sweep grids write their committed ``results/*_sweep.txt``
report; ``--quick`` reports go only to ``--out``.

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
    rls-experiment replicasweep --flush-policy max-batch --leaf-batches 4
    rls-experiment fig8 --scheduler event --replicas 2
    rls-experiment servesweep --rates 0.5,2.0 --clients 256 --replicas 1,2
    rls-experiment servesweep --arrival bursty --overloads shed-newest,block
    rls-experiment servesweep --quick --out serve.txt   # CI smoke: small trace, fast
    rls-experiment zoosweep --sims Pong,Hopper --algos DQN,PPO
    rls-experiment zoosweep --worker-counts 4,8 --replicas 1,2
    rls-experiment zoosweep --sims Pong --timesteps 4 --trace-dir traces --out zoo.txt
    rls-experiment zoosweep --quick     # CI smoke: 2 sims, 1 worker count
    rls-experiment cachesweep --worker-counts 4,8 --replicas 1,2
    rls-experiment cachesweep --quick   # CI smoke: 1 cell, cache off vs on
    rls-experiment faultsweep --fault-rates 0,150 --replicas 4
    rls-experiment faultsweep --quick   # CI smoke: fault-free vs one faulty cell
    rls-experiment findings          # run everything and check F.1-F.12
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from . import (
    DEFAULT_MINIGO_CONFIG, findings, run_batch_sweep, run_cache_sweep, run_fault_sweep,
    run_fig4, run_fig5, run_fig7, run_fig8, run_fig11a, run_fig11b, run_replica_sweep,
    run_sched_sweep, run_serve_sweep, run_table1, run_zoo_sweep, table1,
)
from ..rl.zoo import ZOO_ALGORITHMS
from ..rollout import FLUSH_POLICIES, ROUTING_POLICIES
from ..rollout.pool import SCHEDULER_EVENT, SCHEDULERS
from ..serving import OVERLOAD_POLICIES
from ..sim.registry import available_simulators
from .common import DEFAULT_TIMESTEPS
from .faultsweep import FAULT_POLICIES


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


def _name_list(text: str) -> tuple:
    values = tuple(value.strip() for value in text.split(",") if value.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated names, got {text!r}")
    return values


def _choice_list(noun: str, allowed: Sequence[str]) -> dict:
    """A flag taking comma-separated ``noun``, each one of ``allowed``."""
    def parse(text: str) -> tuple:
        values = _name_list(text)
        bad = [value for value in values if value not in allowed]
        if bad:
            raise argparse.ArgumentTypeError(
                f"unknown {noun} {bad}; choose from {', '.join(allowed)}")
        return values
    return dict(type=parse, help=f"{noun}, comma-separated from {','.join(allowed)}")


def _table1() -> str:
    return table1.report(run_table1())


def _findings(timesteps: int = DEFAULT_TIMESTEPS, seed: int = 0) -> str:
    checks = findings.check_all(
        fig4_td3=run_fig4("TD3", timesteps=timesteps, seed=seed),
        fig4_ddpg=run_fig4("DDPG", timesteps=timesteps, seed=seed),
        fig5=run_fig5(timesteps=timesteps, seed=seed),
        fig7=run_fig7(timesteps=timesteps, seed=seed),
        fig8=run_fig8(replace(DEFAULT_MINIGO_CONFIG, seed=seed)))
    return "\n".join(str(finding) for finding in checks.values())


def _fig8(**fields):
    """Figure 8 with each flag set on its ``MinigoConfig`` field;
    ``--scheduler event`` also turns on batched inference, which it needs."""
    if fields.get("scheduler") == SCHEDULER_EVENT:
        fields["batched_inference"] = True
    return run_fig8(replace(DEFAULT_MINIGO_CONFIG, **fields))


def _flags(*same: str, **renamed: str) -> Dict[str, str]:
    """Flag destinations mapped to the keyword argument each one sets."""
    return {**{name: name for name in same}, **renamed}


@dataclass(frozen=True)
class Experiment:
    """One ``rls-experiment`` row: what it runs and which flags it reads."""

    #: keyword arguments -> the report, or a result with a ``report()``
    run: Callable[..., Any]
    flags: Dict[str, str] = field(default_factory=dict)  #: flag dest -> keyword argument
    #: Flags passed as a tuple: a list flag may hold several values here (any
    #: other list flag takes one value), a single-value flag is wrapped.
    lists: Tuple[str, ...] = ()
    quick: Optional[dict] = None         #: keyword defaults under ``--quick``
    out: Optional[str] = None            #: the full grid's report file


_SERVE_FLAGS = _flags("seed", replicas="replica_counts", clients="num_clients")
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(_table1),
    "fig4": Experiment(run_fig4, _flags("algo", "timesteps", "seed")),
    "fig5": Experiment(run_fig5, _flags("timesteps", "seed")),
    "fig7": Experiment(run_fig7, _flags("timesteps", "seed")),
    "fig8": Experiment(_fig8, _flags(
        "scheduler", "flush_policy", "routing", timeout_us="flush_timeout_us",
        replicas="num_replicas")),
    "fig11a": Experiment(run_fig11a, _flags("timesteps", "seed")),
    "fig11b": Experiment(run_fig11b, _flags("timesteps", "seed")),
    "batchsweep": Experiment(run_batch_sweep, _flags("leaf_batches", "seed"),
                             lists=("leaf_batches",)),
    "schedsweep": Experiment(run_sched_sweep, _flags(
        "leaf_batches", "seed", "routing", "flush_policy", workers="num_workers",
        replicas="num_replicas", timeout_us="flush_timeout_us"), lists=("leaf_batches",)),
    "replicasweep": Experiment(run_replica_sweep, _flags(
        "seed", "flush_policy", replicas="replica_counts", workers="worker_counts",
        routing="routings", leaf_batches="leaf_batch", timeout_us="flush_timeout_us"),
        lists=("replicas", "workers", "routing")),
    "servesweep": Experiment(
        run_serve_sweep,
        _flags("overloads", "arrival", rates="multipliers", **_SERVE_FLAGS),
        lists=("rates", "overloads", "replicas"),
        # A 2-point grid over a short trace, small client fleet.
        quick=dict(multipliers=(0.5, 2.0), overloads=("none", "shed-newest"),
                   replica_counts=(1,), num_clients=64, horizon_us=10_000.0),
        out="results/serve_sweep.txt"),
    "zoosweep": Experiment(
        run_zoo_sweep,
        _flags("sims", "worker_counts", "seed", "trace_dir", algos="algorithms",
               replicas="replica_counts", timesteps="steps_per_worker"),
        lists=("sims", "algos", "worker_counts", "replicas"),
        # Two sims, one worker count, single replica.
        quick=dict(sims=("Pong", "Hopper"), worker_counts=(4,), replica_counts=(1,),
                   steps_per_worker=6),
        out="results/zoo_sweep.txt"),
    "cachesweep": Experiment(
        run_cache_sweep,
        _flags("worker_counts", "seed", replicas="replica_counts",
               eval_games="evaluation_games"),
        lists=("worker_counts", "replicas", "eval_games"),
        # One small cell, still cache off vs on with the win parity and
        # reduction columns.
        quick=dict(worker_counts=(2,), replica_counts=(1,), evaluation_games=(2,),
                   max_moves=4),
        out="results/cache_sweep.txt"),
    "faultsweep": Experiment(
        run_fault_sweep,
        _flags(fault_rates="crash_rates", fault_policies="policies", **_SERVE_FLAGS),
        lists=("fault_rates", "fault_policies", "replicas"),
        # Fault-free control vs one faulty cell, both arms, over a short
        # trace with a small client fleet.
        quick=dict(crash_rates=(0.0, 150.0), replica_counts=(4,), num_clients=64,
                   horizon_us=15_000.0),
        out="results/fault_sweep.txt"),
    "findings": Experiment(_findings, _flags("timesteps", "seed")),
}


#: Every flag's argparse keywords; its help also names the experiments that
#: read it.
FLAGS: Dict[str, dict] = {
    "--algo": dict(help="algorithm for fig4 (TD3 or DDPG; default: TD3)"),
    "--timesteps": dict(type=int, help="steps per workload (zoosweep: per worker)"),
    "--seed": dict(type=int, help="random seed (default: 0)"),
    "--leaf-batches": dict(type=_number_list(int, "leaf batch sizes"),
                           help="comma-separated MCTS leaf batch sizes"),
    "--workers": dict(type=int, help="self-play workers"),
    "--replicas": dict(type=_number_list(int, "replica counts"),
                       help="inference replica counts, comma-separated"),
    "--routing": dict(choices=ROUTING_POLICIES,
                      help="replica routing policy (replicasweep: all unless given)"),
    "--scheduler": dict(choices=SCHEDULERS,
                        help="self-play scheduler (event implies batched inference)"),
    "--flush-policy": dict(choices=FLUSH_POLICIES,
                           help="how the event-driven scheduler departs inference batches"),
    "--timeout-us": dict(type=float,
                         help="partial-batch deadline in virtual us (flush policy 'timeout')"),
    "--rates": dict(type=_number_list(float, "rate multipliers"),
                    help="arrival rates as comma-separated multiples of measured capacity"),
    "--clients": dict(type=int, help="synthetic client count"),
    "--arrival": dict(choices=["poisson", "bursty"], help="arrival process"),
    "--overloads": _choice_list("overload policies", ("none", *OVERLOAD_POLICIES)),
    "--sims": _choice_list("simulators", available_simulators()),
    "--algos": _choice_list("algorithm families", tuple(ZOO_ALGORITHMS)),
    "--worker-counts": dict(type=_number_list(int, "worker counts"),
                            help="worker counts, comma-separated"),
    "--trace-dir": dict(help="stream every batched cell's profiler trace into per-cell "
                             "TraceDB directories under this path"),
    "--eval-games": dict(type=_number_list(int, "evaluation game counts"),
                         help="evaluation-round sizes, comma-separated"),
    "--fault-rates": dict(type=_number_list(float, "fault rates", allow_zero=True),
                          help="replica crash rates per virtual second, comma-separated; "
                               "0 is the fault-free control"),
    "--fault-policies": _choice_list("fault policies", FAULT_POLICIES),
    "--quick": dict(action="store_true", help="smoke mode: a small grid (the CI "
                    "configuration); its report is written only to --out"),
    "--out": dict(help="also write the report to this path (default without --quick: "
                       "the committed results/<sweep>_sweep.txt)"),
}


def _accepted(experiment: Experiment) -> set:
    return {*experiment.flags, *(("quick", "out") if experiment.out else ())}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rls-experiment", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    for flag, keywords in FLAGS.items():
        dest = flag[2:].replace("-", "_")
        readers = [name for name, row in EXPERIMENTS.items() if dest in _accepted(row)]
        parser.add_argument(flag, **{**keywords, "help": f"{keywords['help']} "
                                                         f"[{', '.join(readers)}]"})
    return parser


def parse(argv: Optional[Sequence[str]] = None) -> Tuple[str, Dict[str, object], Optional[str]]:
    """Check ``argv`` against its experiment's row: the experiment, the
    keyword arguments its ``run`` gets and the path its report goes to."""
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    name = given.pop("experiment")
    experiment = EXPERIMENTS[name]
    for dest in given:
        if dest not in _accepted(experiment):
            parser.error(f"{name} does not take --{dest.replace('_', '-')}")
    quick, out = given.pop("quick", False), given.pop("out", None)
    kwargs = {**experiment.quick} if quick else {}
    for dest, value in given.items():
        if dest in experiment.lists:
            value = value if isinstance(value, tuple) else (value,)
        elif isinstance(value, tuple):
            if len(value) > 1:
                parser.error(f"{name} takes a single --{dest.replace('_', '-')} value")
            value = value[0]
        kwargs[experiment.flags[dest]] = value
    # A --quick report goes only where --out says: the default path holds
    # the full grid's committed report.
    return name, kwargs, out if out is not None or quick else experiment.out


def main(argv: Optional[Sequence[str]] = None) -> int:
    name, kwargs, path = parse(argv)
    result = EXPERIMENTS[name].run(**kwargs)
    text = result if isinstance(result, str) else result.report()
    print(text)
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
