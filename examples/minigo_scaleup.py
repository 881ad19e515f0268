"""Minigo scale-up workload: why "100% GPU utilization" can be meaningless (Section 4.3).

Runs one round of Minigo training — 16 parallel self-play workers feeding a
shared GPU, followed by SGD updates and candidate evaluation — and contrasts
the coarse-grained nvidia-smi utilization metric with RL-Scope's true
GPU-kernel time per worker (Figure 8, finding F.11).

Run with::

    python examples/minigo_scaleup.py [num_workers] [scheduler] [num_replicas]

where ``scheduler`` is ``sequential`` (default) or ``event`` — the latter
interleaves the self-play workers at MCTS-wave granularity so one shared
engine call batches leaf evaluations across workers, like a real inference
server, and prints the resulting batching statistics.  ``num_replicas``
shards the inference service across that many model replicas (each beyond
the first modelling an additional inference GPU, routed round-robin).
"""

from __future__ import annotations

import sys

from repro.experiments import run_fig8
from repro.experiments.findings import check_f11_misleading_gpu_utilization
from repro.minigo import MinigoConfig


def main(num_workers: int = 16, scheduler: str = "sequential", num_replicas: int = 1) -> None:
    if num_replicas > 1 and scheduler != "event":
        raise SystemExit("num_replicas > 1 requires the event scheduler: "
                         "python examples/minigo_scaleup.py [workers] event [replicas]")
    event = scheduler == "event"
    config = MinigoConfig(
        num_workers=num_workers,
        board_size=5,
        num_simulations=6,
        games_per_worker=1,
        max_moves=20,
        sgd_steps=16,
        evaluation_games=2,
        hidden=(64, 64),
        scheduler=scheduler,
        batched_inference=event,
        leaf_batch=8 if event else 1,
        num_replicas=num_replicas,
    )
    result = run_fig8(config)
    print(result.report())
    print()
    check = check_f11_misleading_gpu_utilization(result)
    print(check)
    busiest = max(result.selfplay_summaries(), key=lambda s: s.total_time_us)
    print(f"\nbusiest self-play worker: {busiest.worker} — "
          f"{busiest.total_time_sec:.2f}s total, only {busiest.gpu_time_sec:.3f}s executing GPU kernels, "
          f"yet nvidia-smi reports {result.reported_utilization_pct():.0f}% GPU utilization.")
    stats = result.round_result.selfplay_inference_stats
    if stats is not None and stats.cross_worker_batches:
        print(f"event-driven scheduler: {stats.engine_calls} batched engine calls served "
              f"{stats.rows} leaf evaluations ({stats.mean_batch_rows:.1f} rows/call, "
              f"{100.0 * stats.cross_worker_share:.0f}% of batches cross-worker, "
              f"mean queueing delay {stats.mean_queue_delay_us:.0f}us).")
    replica_stats = result.round_result.selfplay_replica_stats
    if replica_stats is not None and len(replica_stats) > 1:
        shares = ", ".join(f"replica_{i}: {rs.engine_calls} calls / {rs.rows} rows"
                           for i, rs in enumerate(replica_stats))
        print(f"sharded inference across {len(replica_stats)} replicas — {shares}; "
              f"weight broadcast after the round took "
              f"{result.round_result.weight_broadcast_us:.0f}us of virtual time.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16,
         sys.argv[2] if len(sys.argv) > 2 else "sequential",
         int(sys.argv[3]) if len(sys.argv) > 3 else 1)
