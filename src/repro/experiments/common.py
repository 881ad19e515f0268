"""Shared experiment infrastructure: run one profiled RL workload end to end.

Every figure of the paper is regenerated from one or more *workload runs*: a
(RL algorithm, simulator, framework configuration) triple trained for a fixed
number of timesteps under a profiler configuration, followed by offline
analysis.  This module provides that runner plus calibration helpers.

Scale note: the paper trains for hundreds of thousands of simulator steps on
real hardware; the reproduction runs a few hundred virtual-time steps per
workload.  All reported quantities are either fractions/ratios (which are
step-count independent) or virtual seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..hw.costmodel import CostModelConfig
from ..profiler.analysis import WorkloadAnalysis, analyze, analyze_db
from ..profiler.api import Profiler, ProfilerConfig
from ..profiler.calibration import CalibrationResult, CalibrationRun, calibrate
from ..profiler.columns import ColumnarTrace
from ..rl import FrameworkAdapter, FrameworkSpec, STABLE_BASELINES, TrainResult, default_config, make_algorithm
from ..sim import make as make_env
from ..system import System

#: Default number of simulated environment steps per experiment workload.
DEFAULT_TIMESTEPS = 220


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload of the evaluation: algorithm x simulator x framework."""

    algo: str
    simulator: str
    framework: FrameworkSpec = STABLE_BASELINES
    total_timesteps: int = DEFAULT_TIMESTEPS
    seed: int = 0
    config_overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.algo}/{self.simulator}/{self.framework.label}"

    def scaled(self, factor: float) -> "WorkloadSpec":
        """Return a copy with the step budget scaled by ``factor``."""
        return replace(self, total_timesteps=max(int(self.total_timesteps * factor), 16))


@dataclass
class WorkloadRun:
    """A completed workload run plus its analysis."""

    spec: WorkloadSpec
    train_result: TrainResult
    trace: ColumnarTrace
    analysis: WorkloadAnalysis
    total_time_us: float
    profiler_config: ProfilerConfig
    calibration: Optional[CalibrationResult] = None

    @property
    def total_time_sec(self) -> float:
        return self.total_time_us / 1e6


def run_workload(
    spec: WorkloadSpec,
    *,
    profiler_config: Optional[ProfilerConfig] = None,
    calibration: Optional[CalibrationResult] = None,
    cost_config: Optional[CostModelConfig] = None,
    use_ground_truth_calibration: bool = False,
    trace_dir: Optional[str] = None,
    streaming: bool = False,
) -> WorkloadRun:
    """Train one workload under the profiler and analyse its trace.

    ``use_ground_truth_calibration`` stands in for "reuse a calibration file
    computed earlier for this workload" (the paper computes calibration once
    per workload and reuses it); :mod:`repro.experiments.fig11` performs the
    real calibration procedure.

    With ``streaming=True`` (requires ``trace_dir``) the profiler flushes
    events incrementally into a :mod:`repro.tracedb` store and the analysis
    is computed from that store (shard-parallel overlap); flushes add zero
    virtual time, so every reported quantity is unchanged.  Without
    streaming, a ``trace_dir`` receives the in-memory trace at finalize.
    """
    profiler_config = profiler_config if profiler_config is not None else ProfilerConfig.full()
    system = System.create(seed=spec.seed, config=cost_config)
    env = make_env(spec.simulator, system, seed=spec.seed)
    framework = FrameworkAdapter(system, spec.framework)
    profiler = Profiler(system, profiler_config, trace_dir=trace_dir, streaming=streaming)
    profiler.attach(engine=framework.engine, envs=[env])

    algo_config = default_config(spec.algo, **spec.config_overrides)
    agent = make_algorithm(spec.algo, env, framework, config=algo_config,
                           profiler=profiler, seed=spec.seed)
    train_result = agent.train(spec.total_timesteps)
    trace = profiler.finalize()

    if calibration is None and use_ground_truth_calibration:
        calibration = CalibrationResult.from_ground_truth(system.cost_model.config)
    if streaming:
        analysis = analyze_db(profiler.open_tracedb(), calibration=calibration,
                              iterations=spec.total_timesteps)
        trace = analysis.trace
    else:
        analysis = analyze(trace, calibration=calibration, iterations=spec.total_timesteps)
    return WorkloadRun(
        spec=spec,
        train_result=train_result,
        trace=trace,
        analysis=analysis,
        total_time_us=system.clock.now_us,
        profiler_config=profiler_config,
        calibration=calibration,
    )


def calibration_runner(spec: WorkloadSpec, *, cost_config: Optional[CostModelConfig] = None):
    """Build the workload runner that :func:`repro.profiler.calibration.calibrate` drives.

    Each invocation re-runs the same seeded workload under a different
    profiler configuration, exactly like the paper's calibration procedure.
    """

    def run(config: ProfilerConfig) -> CalibrationRun:
        outcome = run_workload(spec, profiler_config=config, cost_config=cost_config)
        return CalibrationRun(total_time_us=outcome.total_time_us, trace=outcome.trace)

    return run


def calibrate_workload(spec: WorkloadSpec, *, cost_config: Optional[CostModelConfig] = None) -> CalibrationResult:
    """Run the full calibration procedure (6 runs) for one workload."""
    return calibrate(calibration_runner(spec, cost_config=cost_config))
