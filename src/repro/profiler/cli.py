"""``rls-prof``: profile one RL training workload and print its breakdown.

The original tool is launched as ``rls-prof python train.py``; in the
reproduction the workloads are built in, so the CLI takes an algorithm,
simulator and framework configuration instead::

    rls-prof --algo PPO2 --simulator Walker2D --steps 200 --trace-dir traces/
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..rl.frameworks import TABLE1, FrameworkSpec, STABLE_BASELINES


def _framework_by_label(label: str) -> FrameworkSpec:
    for spec in TABLE1:
        if spec.label.lower() == label.lower() or spec.key == label:
            return spec
    raise SystemExit(f"unknown framework {label!r}; choose from {[s.label for s in TABLE1]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rls-prof", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--algo", default="PPO2", help="RL algorithm (DQN/DDPG/TD3/SAC/A2C/PPO2)")
    parser.add_argument("--simulator", default="Walker2D", help="simulator name (see repro.sim.available_simulators)")
    parser.add_argument("--framework", default=STABLE_BASELINES.label,
                        help="framework configuration label from Table 1")
    parser.add_argument("--steps", type=int, default=200, help="number of simulator steps to train for")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-dir", default=None, help="directory to store RL-Scope trace files")
    parser.add_argument("--streaming", action="store_true",
                        help="flush the trace incrementally into a TraceDB store during profiling "
                             "(requires --trace-dir; query it afterwards with repro-trace)")
    parser.add_argument("--no-correction", action="store_true",
                        help="report uncorrected times (skip overhead correction)")
    parser.add_argument("--uninstrumented", action="store_true",
                        help="run without any profiling (baseline timing only)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Imports are deferred so `rls-prof --help` stays fast.
    from ..experiments.common import WorkloadSpec, run_workload
    from ..profiler.api import ProfilerConfig
    from ..profiler import report as report_mod

    spec = WorkloadSpec(
        algo=args.algo.upper(),
        simulator=args.simulator,
        framework=_framework_by_label(args.framework),
        total_timesteps=args.steps,
        seed=args.seed,
    )
    if args.streaming and not args.trace_dir:
        raise SystemExit("--streaming requires --trace-dir")
    profiler_config = ProfilerConfig.uninstrumented() if args.uninstrumented else ProfilerConfig.full()
    run = run_workload(spec, profiler_config=profiler_config,
                       use_ground_truth_calibration=not args.no_correction,
                       trace_dir=args.trace_dir,
                       streaming=args.streaming)

    print(f"workload: {spec.label}  ({args.steps} steps, seed {args.seed})")
    print(f"total training time: {run.total_time_sec:.3f} virtual seconds")
    if args.uninstrumented:
        return 0

    analyses = {spec.label: run.analysis}
    print()
    print(report_mod.total_time_table(analyses, corrected=not args.no_correction))
    print()
    print(report_mod.breakdown_table(analyses, corrected=not args.no_correction))
    print()
    print(report_mod.transitions_table(analyses, args.steps))

    if args.trace_dir:
        if args.streaming:
            print(f"\ntrace streamed to {args.trace_dir} (inspect with: repro-trace summarize {args.trace_dir})")
        else:
            print(f"\ntrace written to {args.trace_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
