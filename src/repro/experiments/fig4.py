"""Figure 4: RL framework comparison (TD3 and DDPG on Walker2D).

Regenerates, for each framework configuration of Table 1,

* the per-operation time breakdown by stack category (Figures 4a / 4b), and
* the language transitions per training iteration (Figures 4c / 4d).

The same algorithm, simulator and hyperparameters are used across framework
configurations, so differences are attributable to the execution model and
ML backend, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.costmodel import CostModelConfig
from ..profiler import report as report_mod
from ..rl.frameworks import REAGENT, STABLE_BASELINES, TABLE1, TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER, FrameworkSpec
from .common import DEFAULT_TIMESTEPS, WorkloadRun, WorkloadSpec, run_workload

#: Framework configurations shown for each algorithm (Figure 4b omits ReAgent DDPG).
FRAMEWORKS_BY_ALGO: Dict[str, List[FrameworkSpec]] = {
    "TD3": [REAGENT, TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER, STABLE_BASELINES],
    "DDPG": [TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER, STABLE_BASELINES],
}


@dataclass
class Fig4Result:
    """All runs for one algorithm's panel of Figure 4."""

    algo: str
    simulator: str
    timesteps: int
    runs: Dict[str, WorkloadRun] = field(default_factory=dict)

    # ------------------------------------------------------------- reductions
    def total_times_sec(self, *, corrected: bool = True) -> Dict[str, float]:
        return {label: run.analysis.total_time_sec(corrected=corrected) for label, run in self.runs.items()}

    def breakdown_sec(self, *, corrected: bool = True) -> Dict[str, Dict[str, Dict[str, float]]]:
        """framework label -> operation -> category -> seconds."""
        return {label: run.analysis.category_breakdown_sec(corrected=corrected)
                for label, run in self.runs.items()}

    def transitions_per_iteration(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """framework label -> operation -> transition category -> per-iteration count."""
        return {label: run.analysis.transitions_per_iteration(self.timesteps)
                for label, run in self.runs.items()}

    def gpu_fractions(self) -> Dict[str, float]:
        return {label: run.analysis.gpu_fraction() for label, run in self.runs.items()}

    def report(self) -> str:
        analyses = {label: run.analysis for label, run in self.runs.items()}
        sections = [
            f"Figure 4 ({self.algo}, {self.simulator}): training time breakdown",
            report_mod.total_time_table(analyses),
            "",
            report_mod.breakdown_table(analyses),
            "",
            f"Figure 4 ({self.algo}, {self.simulator}): language transitions per iteration",
            report_mod.transitions_table(analyses, self.timesteps),
        ]
        return "\n".join(sections)


def run_fig4(
    algo: str = "TD3",
    *,
    simulator: str = "Walker2D",
    timesteps: int = DEFAULT_TIMESTEPS,
    seed: int = 0,
    frameworks: Optional[List[FrameworkSpec]] = None,
    cost_config: Optional[CostModelConfig] = None,
) -> Fig4Result:
    """Run one panel of Figure 4 (``algo`` is ``"TD3"`` for 4a/4c, ``"DDPG"`` for 4b/4d)."""
    algo = algo.upper()
    if frameworks is None:
        frameworks = FRAMEWORKS_BY_ALGO.get(algo, TABLE1)
    result = Fig4Result(algo=algo, simulator=simulator, timesteps=timesteps)
    for spec in frameworks:
        workload = WorkloadSpec(algo=algo, simulator=simulator, framework=spec,
                                total_timesteps=timesteps, seed=seed)
        result.runs[spec.label] = run_workload(workload, cost_config=cost_config,
                                               use_ground_truth_calibration=True)
    return result
