"""Figure 5: RL algorithm survey (DDPG, SAC, A2C, PPO2 on Walker2D).

For each algorithm we regenerate the total training time and the
per-operation / per-category breakdown, expressed as a percentage of total
training time as in the paper's lower panel, and the simulation-bound
fractions behind findings F.9 and F.10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.costmodel import CostModelConfig
from ..profiler import report as report_mod
from ..rl import OFF_POLICY_ALGORITHMS, ON_POLICY_ALGORITHMS
from .common import DEFAULT_TIMESTEPS, WorkloadRun, WorkloadSpec, run_workload

#: Algorithms surveyed in Figure 5, with their on/off-policy classification.
SURVEY_ALGORITHMS = ["DDPG", "SAC", "A2C", "PPO2"]


@dataclass
class Fig5Result:
    simulator: str
    timesteps: int
    runs: Dict[str, WorkloadRun] = field(default_factory=dict)

    # ------------------------------------------------------------- reductions
    def total_times_sec(self) -> Dict[str, float]:
        return {algo: run.analysis.total_time_sec() for algo, run in self.runs.items()}

    def simulation_fraction(self, algo: str) -> float:
        """Fraction of training time spent in the simulation operation."""
        return self.runs[algo].analysis.operation_fraction("simulation")

    def gpu_fraction(self, algo: str) -> float:
        return self.runs[algo].analysis.gpu_fraction()

    def operation_gpu_fraction(self, algo: str, operation: str) -> float:
        """Fraction of an operation's time spent executing GPU kernels."""
        analysis = self.runs[algo].analysis
        resources = analysis.resource_breakdown_us().get(operation, {})
        total = sum(resources.values())
        gpu = resources.get("GPU", 0.0) + resources.get("CPU + GPU", 0.0)
        return gpu / total if total > 0 else 0.0

    def on_policy_vs_off_policy_simulation_ratio(self) -> float:
        """min on-policy simulation share / max off-policy simulation share (finding F.10)."""
        on = [self.simulation_fraction(a) for a in self.runs if a in ON_POLICY_ALGORITHMS]
        off = [self.simulation_fraction(a) for a in self.runs if a in OFF_POLICY_ALGORITHMS]
        if not on or not off:
            raise ValueError("need both on-policy and off-policy runs")
        return min(on) / max(off)

    def report(self) -> str:
        analyses = {algo: run.analysis for algo, run in self.runs.items()}
        lines = [
            f"Figure 5: algorithm survey on {self.simulator}",
            report_mod.total_time_table(analyses),
            "",
            report_mod.breakdown_table(analyses, as_percent=True),
            "",
            "Simulation-bound fraction per algorithm:",
        ]
        for algo in self.runs:
            policy_type = "on-policy" if algo in ON_POLICY_ALGORITHMS else "off-policy"
            lines.append(f"  {algo:5s} ({policy_type:10s}): {100.0 * self.simulation_fraction(algo):5.1f}%")
        return "\n".join(lines)


def run_fig5(
    *,
    simulator: str = "Walker2D",
    algorithms: Optional[List[str]] = None,
    timesteps: int = DEFAULT_TIMESTEPS,
    seed: int = 0,
    cost_config: Optional[CostModelConfig] = None,
) -> Fig5Result:
    """Run the algorithm survey of Figure 5."""
    algorithms = algorithms if algorithms is not None else list(SURVEY_ALGORITHMS)
    result = Fig5Result(simulator=simulator, timesteps=timesteps)
    for algo in algorithms:
        spec = WorkloadSpec(algo=algo, simulator=simulator, total_timesteps=timesteps, seed=seed)
        result.runs[algo] = run_workload(spec, cost_config=cost_config,
                                         use_ground_truth_calibration=True)
    return result
