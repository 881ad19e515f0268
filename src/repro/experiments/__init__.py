"""Experiment harness: regenerates every table and figure of the paper's evaluation."""

from .common import (
    DEFAULT_TIMESTEPS,
    WorkloadRun,
    WorkloadSpec,
    calibrate_workload,
    calibration_runner,
    run_workload,
)
from .batchsweep import DEFAULT_BATCH_KWARGS, BatchSweepPoint, BatchSweepResult, run_batch_sweep
from .schedsweep import DEFAULT_SCHED_KWARGS, SchedSweepPoint, SchedSweepResult, run_sched_sweep
from .replicasweep import (
    DEFAULT_REPLICA_POOL_KWARGS,
    ReplicaSweepPoint,
    ReplicaSweepResult,
    inference_bound_cost_config,
    run_replica_sweep,
)
from .cachesweep import DEFAULT_CACHE_KWARGS, CacheSweepPoint, CacheSweepResult, run_cache_sweep
from .faultsweep import DEFAULT_FAULT_KWARGS, FaultSweepPoint, FaultSweepResult, run_fault_sweep
from .servesweep import DEFAULT_SERVE_KWARGS, ServeSweepPoint, ServeSweepResult, run_serve_sweep
from .zoosweep import DEFAULT_ZOO_KWARGS, ZooSweepPoint, ZooSweepResult, run_zoo_sweep
from .fig4 import FRAMEWORKS_BY_ALGO, Fig4Result, run_fig4
from .fig5 import SURVEY_ALGORITHMS, Fig5Result, run_fig5
from .fig7 import SURVEY_SIMULATORS, Fig7Result, run_fig7
from .fig8 import DEFAULT_MINIGO_CONFIG, Fig8Result, run_fig8
from .fig11 import (
    DEFAULT_FIG11_TIMESTEPS,
    FIG11A_ALGORITHMS,
    FIG11B_SIMULATORS,
    CorrectionValidation,
    Fig11Result,
    run_fig11a,
    run_fig11b,
    validate_workload,
)
from .findings import Finding, check_all
from .table1 import Table1Row, run_table1
from . import findings, table1

__all__ = [
    "DEFAULT_TIMESTEPS",
    "WorkloadRun",
    "WorkloadSpec",
    "calibrate_workload",
    "calibration_runner",
    "run_workload",
    "DEFAULT_BATCH_KWARGS",
    "BatchSweepPoint",
    "BatchSweepResult",
    "run_batch_sweep",
    "DEFAULT_SCHED_KWARGS",
    "SchedSweepPoint",
    "SchedSweepResult",
    "run_sched_sweep",
    "DEFAULT_REPLICA_POOL_KWARGS",
    "ReplicaSweepPoint",
    "ReplicaSweepResult",
    "inference_bound_cost_config",
    "run_replica_sweep",
    "DEFAULT_CACHE_KWARGS",
    "CacheSweepPoint",
    "CacheSweepResult",
    "run_cache_sweep",
    "DEFAULT_FAULT_KWARGS",
    "FaultSweepPoint",
    "FaultSweepResult",
    "run_fault_sweep",
    "DEFAULT_SERVE_KWARGS",
    "ServeSweepPoint",
    "ServeSweepResult",
    "run_serve_sweep",
    "DEFAULT_ZOO_KWARGS",
    "ZooSweepPoint",
    "ZooSweepResult",
    "run_zoo_sweep",
    "FRAMEWORKS_BY_ALGO",
    "Fig4Result",
    "run_fig4",
    "SURVEY_ALGORITHMS",
    "Fig5Result",
    "run_fig5",
    "SURVEY_SIMULATORS",
    "Fig7Result",
    "run_fig7",
    "DEFAULT_MINIGO_CONFIG",
    "Fig8Result",
    "run_fig8",
    "DEFAULT_FIG11_TIMESTEPS",
    "FIG11A_ALGORITHMS",
    "FIG11B_SIMULATORS",
    "CorrectionValidation",
    "Fig11Result",
    "run_fig11a",
    "run_fig11b",
    "validate_workload",
    "Finding",
    "check_all",
    "Table1Row",
    "run_table1",
    "findings",
    "table1",
]
