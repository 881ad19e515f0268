"""Figure 7 (Appendix B.1): simulator survey with a fixed algorithm (PPO).

The same top-performing algorithm (PPO) is trained on simulators spanning the
low / medium / high complexity classes of Figure 6; for each simulator we
regenerate total training time, the percentage breakdown and the
simulation-bound fraction (finding F.12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.costmodel import CostModelConfig
from ..profiler import report as report_mod
from ..sim.registry import SIMULATOR_COMPLEXITY
from .common import DEFAULT_TIMESTEPS, WorkloadRun, WorkloadSpec, run_workload

#: Simulators surveyed in Figure 7, ordered as in the paper's x-axis.
SURVEY_SIMULATORS = ["AirLearning", "Ant", "HalfCheetah", "Hopper", "Pong", "Walker2D"]

#: Per-simulator tuned hyperparameters (rl-baselines-zoo style).  The paper
#: notes that the tuned (PPO, Pong) configuration performs few gradient
#: updates relative to simulator invocations, which is why Pong is so
#: simulation-bound despite being a cheap simulator.
SIMULATOR_OVERRIDES = {
    "Pong": {"n_steps": 128, "n_epochs": 1},
    "AirLearning": {"n_steps": 64, "n_epochs": 1},
}


@dataclass
class Fig7Result:
    algo: str
    timesteps: int
    runs: Dict[str, WorkloadRun] = field(default_factory=dict)

    def total_times_sec(self) -> Dict[str, float]:
        return {sim: run.analysis.total_time_sec() for sim, run in self.runs.items()}

    def simulation_fraction(self, simulator: str) -> float:
        return self.runs[simulator].analysis.operation_fraction("simulation")

    def gpu_fraction(self, simulator: str) -> float:
        return self.runs[simulator].analysis.gpu_fraction()

    def report(self) -> str:
        analyses = {sim: run.analysis for sim, run in self.runs.items()}
        lines = [
            f"Figure 7: simulator survey with {self.algo}",
            report_mod.total_time_table(analyses),
            "",
            report_mod.breakdown_table(analyses, as_percent=True),
            "",
            "Simulation-bound fraction per simulator:",
        ]
        for sim in self.runs:
            complexity = SIMULATOR_COMPLEXITY.get(sim, "?")
            lines.append(f"  {sim:12s} ({complexity:6s} complexity): {100.0 * self.simulation_fraction(sim):5.1f}%")
        return "\n".join(lines)


def run_fig7(
    *,
    algo: str = "PPO2",
    simulators: Optional[List[str]] = None,
    timesteps: int = DEFAULT_TIMESTEPS,
    seed: int = 0,
    cost_config: Optional[CostModelConfig] = None,
) -> Fig7Result:
    """Run the simulator survey of Figure 7."""
    simulators = simulators if simulators is not None else list(SURVEY_SIMULATORS)
    result = Fig7Result(algo=algo, timesteps=timesteps)
    for simulator in simulators:
        overrides = SIMULATOR_OVERRIDES.get(simulator, {})
        spec = WorkloadSpec(algo=algo, simulator=simulator, total_timesteps=timesteps, seed=seed,
                            config_overrides=dict(overrides))
        result.runs[simulator] = run_workload(spec, cost_config=cost_config,
                                              use_ground_truth_calibration=True)
    return result
