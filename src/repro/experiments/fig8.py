"""Figure 8: Minigo scale-up workload — multi-process view and GPU utilization.

Runs one Minigo training round (parallel self-play, SGD updates, candidate
evaluation), then reports per-worker total time and GPU kernel time plus the
coarse-grained ``nvidia-smi`` utilization sampled over the parallel
data-collection window — the contrast behind finding F.11.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..hw.nvidia_smi import UtilizationReport
from ..minigo import MinigoConfig, MinigoRoundResult, MinigoTraining
from ..profiler import (
    WorkerSummary,
    multi_process_summary,
    multi_process_summary_db,
    report as report_mod,
)

#: Reproduction-scale Minigo round: 16 workers (as in the paper), small board.
DEFAULT_MINIGO_CONFIG = MinigoConfig(
    num_workers=16,
    board_size=5,
    num_simulations=8,
    games_per_worker=1,
    sgd_steps=16,
    evaluation_games=2,
)


@dataclass
class Fig8Result:
    round_result: MinigoRoundResult
    summaries: List[WorkerSummary]
    utilization: UtilizationReport

    # ------------------------------------------------------------- reductions
    def selfplay_summaries(self) -> List[WorkerSummary]:
        return [s for s in self.summaries if s.worker.startswith("selfplay_worker")]

    def max_worker_time_sec(self) -> float:
        return max((s.total_time_sec for s in self.selfplay_summaries()), default=0.0)

    def max_worker_gpu_sec(self) -> float:
        return max((s.gpu_time_sec for s in self.selfplay_summaries()), default=0.0)

    def worker_gpu_fraction(self) -> float:
        """GPU kernel time as a fraction of total time, for the busiest worker."""
        summaries = self.selfplay_summaries()
        if not summaries:
            return 0.0
        busiest = max(summaries, key=lambda s: s.total_time_us)
        return busiest.gpu_time_us / busiest.total_time_us if busiest.total_time_us > 0 else 0.0

    def reported_utilization_pct(self) -> float:
        return self.utilization.reported_utilization_pct

    def true_busy_pct(self) -> float:
        return self.utilization.true_busy_pct

    def report(self) -> str:
        lines = [
            "Figure 8: Minigo multi-process view",
            report_mod.worker_table(self.summaries,
                                    utilization_pct=self.reported_utilization_pct(),
                                    true_busy_pct=self.true_busy_pct()),
            "",
            f"Candidate accepted: {self.round_result.candidate_accepted} "
            f"({self.round_result.candidate_wins}/{self.round_result.evaluation_games} evaluation games won)",
        ]
        return "\n".join(lines)


def run_fig8(
    config: Optional[MinigoConfig] = None,
    *,
    sample_period_us: float = 250_000.0,
    trace_dir: Optional[str] = None,
    scheduler: Optional[str] = None,
    leaf_batch: Optional[int] = None,
    flush_policy: Optional[str] = None,
    flush_timeout_us: Optional[float] = None,
    num_replicas: Optional[int] = None,
    routing: Optional[str] = None,
) -> Fig8Result:
    """Run one Minigo round and compute the Figure 8 quantities.

    With ``trace_dir`` the round streams every phase's trace into one
    TraceDB store (bounded memory during profiling) and the per-worker
    summaries are computed shard-parallel from that store — byte-identical
    to the in-memory path.  ``scheduler="event"`` switches the self-play
    phase to the event-driven virtual-time pool (implies batched inference,
    with ``leaf_batch`` leaves per MCTS wave, departing batches under
    ``flush_policy``/``flush_timeout_us``).  ``num_replicas``/``routing``
    shard the inference service across that many model replicas (each
    beyond the first modelling an additional inference GPU).
    """
    config = config if config is not None else DEFAULT_MINIGO_CONFIG
    if trace_dir is not None:
        config = replace(config, trace_dir=trace_dir)
    if scheduler is not None:
        config = replace(config, scheduler=scheduler,
                         batched_inference=config.batched_inference or scheduler == "event")
    if leaf_batch is not None:
        config = replace(config, leaf_batch=leaf_batch)
    if flush_policy is not None:
        config = replace(config, flush_policy=flush_policy)
    if flush_timeout_us is not None:
        config = replace(config, flush_timeout_us=flush_timeout_us)
    if num_replicas is not None:
        config = replace(config, num_replicas=num_replicas)
    if routing is not None:
        config = replace(config, routing=routing)
    training = MinigoTraining(config)
    round_result = training.run_round()
    if round_result.trace_dir is not None:
        summaries = multi_process_summary_db(round_result.trace_dir)
    else:
        summaries = multi_process_summary(round_result.traces())
    # Choose a sample period no larger than ~1/20th of the collection window so
    # the utilization metric has enough samples at reproduction scale, while
    # never exceeding the paper's 0.25 s period.
    window = max((run.total_time_us for run in round_result.worker_runs), default=0.0)
    period = min(sample_period_us, max(window / 20.0, 1_000.0))
    utilization = round_result.utilization(sample_period_us=period)
    return Fig8Result(round_result=round_result, summaries=summaries, utilization=utilization)
