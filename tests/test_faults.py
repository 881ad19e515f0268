"""Deterministic fault injection and self-healing execution (ISSUE 10).

Three layers of recovery machinery under one seeded adversary:

* the **plan/injector** substrate — a :class:`FaultPlan` is a pure function
  of its seed, the injector partitions it per consumer, and every applied
  fault is a stable replayable log line;
* the **replica pool** — fail-stop crashes at batch boundaries, arrival-order
  re-dispatch of the dead horizon's planned rows, recovery with weight
  re-broadcast, availability accounting;
* the **serving tier** — degraded-mode admission scaled to surviving
  capacity, fault events in the decision log, wire-frame drop/corrupt
  survival;
* the **multiprocess tier** — journal-replay respawn of crashed shard
  processes with bit-identical records, clocks and merged trace stores.

The overriding bar everywhere: an *empty* plan is bit-for-bit free, and a
fixed seed replays every fault history line-identically.
"""

import gc
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.faults import (
    BROADCAST_FAIL,
    EMPTY_PLAN,
    FRAME_CORRUPT,
    FRAME_DROP,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    REPLICA_CRASH,
    REPLICA_RECOVER,
    REPLICA_SLOW,
    SHARD_CRASH,
)
from repro.minigo import PolicyValueNet
from repro.minigo.workers import SelfPlayPool
from repro.rollout import EnvRolloutPool
from repro.serving import (
    InferenceServer,
    LoadGenerator,
    PoissonProcess,
    build_slo_report,
    run_serving,
)

BOARD = 5
FEATURE_DIM = 3 * BOARD * BOARD
SEED = 0


def make_network(seed=SEED):
    return PolicyValueNet(BOARD, (16,), rng=np.random.default_rng(seed))


# ------------------------------------------------------------ plan/injector
def test_fault_plan_sorts_validates_and_renders():
    plan = FaultPlan(events=(
        FaultEvent(500.0, REPLICA_RECOVER, 1),
        FaultEvent(100.0, REPLICA_CRASH, 1),
        FaultEvent(100.0, REPLICA_SLOW, 0, param=2.0, duration_us=50.0),
    ))
    assert [e.kind for e in plan.events] == [
        REPLICA_CRASH, REPLICA_SLOW, REPLICA_RECOVER]  # time, then kind order
    assert not plan.empty and EMPTY_PLAN.empty and FaultPlan().empty
    assert plan.replica_event_times() == (100.0, 100.0, 500.0)
    assert "target=1" in plan.events[0].render()
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(0.0, "meteor-strike")
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent(-1.0, REPLICA_CRASH, 0)
    with pytest.raises(ValueError, match="slowdown factor"):
        FaultEvent(0.0, REPLICA_SLOW, 0, param=0.5)
    with pytest.raises(ValueError, match="redispatch_latency_us"):
        FaultPlan(redispatch_latency_us=-1.0)


def test_seeded_plan_is_a_pure_function_of_seed():
    kwargs = dict(horizon_us=50_000.0, num_replicas=4, crash_rate_per_sec=80.0,
                  frame_loss_per_sec=40.0, broadcast_fail_per_sec=20.0)
    a = FaultPlan.seeded(123, **kwargs)
    b = FaultPlan.seeded(123, **kwargs)
    assert a.events == b.events and a.seed == 123
    assert a.events != FaultPlan.seeded(124, **kwargs).events
    # Every crash schedules its recovery (unless it lands past the horizon).
    crashes = a.of_kind(REPLICA_CRASH)
    recoveries = a.of_kind(REPLICA_RECOVER)
    assert crashes and len(recoveries) <= len(crashes)
    assert all(0.0 <= e.time_us < 50_000.0 for e in a.events)
    assert all(0 <= e.target < 4 for e in crashes)
    # All rates zero => empty plan.
    assert FaultPlan.seeded(5, horizon_us=1_000.0, num_replicas=2).empty


def test_injector_partitions_the_plan_per_consumer():
    plan = FaultPlan(events=(
        FaultEvent(10.0, REPLICA_CRASH, 0),
        FaultEvent(20.0, FRAME_DROP),
        FaultEvent(30.0, FRAME_CORRUPT),
        FaultEvent(40.0, BROADCAST_FAIL, 1),
        FaultEvent(50.0, REPLICA_RECOVER, 0),
    ))
    injector = FaultInjector(plan)
    assert injector.armed
    # Replica queue pops by due time; frame/broadcast queues are untouched.
    assert [e.kind for e in injector.due_replica_events(10.0)] == [REPLICA_CRASH]
    assert injector.due_replica_events(10.0) == []
    assert [e.kind for e in injector.due_replica_events(60.0)] == [REPLICA_RECOVER]
    assert injector.next_frame_fault(5.0) is None
    assert injector.next_frame_fault(25.0).kind == FRAME_DROP
    assert injector.next_frame_fault(25.0) is None   # corrupt not due yet
    assert injector.next_frame_fault(30.0).kind == FRAME_CORRUPT
    assert injector.take_broadcast_failures(0, 100.0) == []   # wrong replica
    assert [e.kind for e in injector.take_broadcast_failures(1, 100.0)] \
        == [BROADCAST_FAIL]
    injector.record(12.5, "replica-crash", 0, "healthy=1/2")
    assert injector.log == ["12.500 replica-crash target=0 healthy=1/2"]


# ------------------------------------------------------------- replica pool
def test_fail_recover_and_availability_accounting():
    from repro.rollout.inference import InferenceService

    service = InferenceService(make_network(), num_replicas=3)
    injector = FaultInjector(FaultPlan(events=(
        FaultEvent(100.0, REPLICA_CRASH, 1),)))
    service.attach_fault_injector(injector)
    assert service.fail_replica(1, 100.0)
    assert not service.replicas[1].healthy
    assert len(service.healthy_replicas()) == 2
    # Open outage: lost capacity accrues while the replica stays down.
    assert service.capacity_lost_us(300.0) == pytest.approx(200.0)
    assert service.availability(300.0) == pytest.approx(1.0 - 200.0 / 900.0)
    assert service.recover_replica(1, 400.0)
    assert service.replicas[1].healthy
    assert service.replicas[1].down_us == pytest.approx(300.0)
    # Closed outage: availability stops degrading after recovery.
    assert service.capacity_lost_us(1_000.0) == pytest.approx(300.0)
    assert service.stats.replica_crashes == 1
    assert service.stats.replica_recoveries == 1
    # Recovery re-broadcast landed on the replica's horizon.
    assert service.replicas[1].stats.weight_broadcasts == 1
    assert service.replicas[1].free_us > 400.0
    kinds = [line.split(" ", 2)[1] for line in injector.log]
    assert kinds == ["replica-crash", "replica-recover"]


def test_last_healthy_replica_refuses_to_die():
    from repro.rollout.inference import InferenceService

    service = InferenceService(make_network(), num_replicas=2)
    injector = FaultInjector(FaultPlan(events=(
        FaultEvent(10.0, REPLICA_CRASH, 0),)))
    service.attach_fault_injector(injector)
    assert service.fail_replica(0, 10.0)
    assert not service.fail_replica(1, 20.0), "the pool must keep one survivor"
    assert service.replicas[1].healthy
    assert service.stats.replica_crashes == 1
    assert any("crash-skipped" in line for line in injector.log)


def test_broadcast_failure_is_charged_twice():
    from repro.rollout.inference import InferenceService

    plain = InferenceService(make_network(), num_replicas=2)
    faulty = InferenceService(make_network(), num_replicas=2)
    injector = FaultInjector(FaultPlan(events=(
        FaultEvent(0.0, BROADCAST_FAIL, 1),)))
    faulty.attach_fault_injector(injector)
    weights = make_network(seed=9).state_dict()
    span_plain = plain.update_weights(weights)
    span_faulty = faulty.update_weights(make_network(seed=9).state_dict())
    assert faulty.stats.broadcast_retries == 1
    assert plain.stats.broadcast_retries == 0
    assert span_faulty > span_plain, "the retried copy must cost extra time"
    assert faulty.replicas[1].stats.weight_broadcast_us == pytest.approx(
        2.0 * plain.replicas[1].stats.weight_broadcast_us)
    assert any("broadcast-fail" in line for line in injector.log)


# ------------------------------------------------------------- serving tier
SERVE_KW = dict(max_batch=8, queue_capacity=64, overload="shed-newest",
                rate_limit_per_sec=None, flush_policy="timeout",
                flush_timeout_us=300.0, seed=SEED)
HORIZON_US = 8_000.0
RATE = 260_000.0  # ~1.2x the 4-replica fleet's capacity at board 5


def _serve(plan, *, num_replicas=4, degraded=True, keep_log=True, clients=32,
           deadline_us=2_000.0):
    server = InferenceServer(make_network(), num_replicas=num_replicas,
                             keep_decision_log=keep_log, fault_plan=plan,
                             degraded_admission=degraded, **SERVE_KW)
    loadgen = LoadGenerator(PoissonProcess(RATE), clients,
                            feature_dim=FEATURE_DIM,
                            request_deadline_us=deadline_us, seed=SEED)
    result = run_serving(server, loadgen, HORIZON_US)
    return server, build_slo_report(result)


def _crash_plan():
    return FaultPlan(events=(
        FaultEvent(2_000.0, REPLICA_CRASH, 1),
        FaultEvent(6_000.0, REPLICA_RECOVER, 1),
    ))


def test_empty_plan_is_bit_identical_at_the_serving_tier():
    server_none, slo_none = _serve(None)
    server_empty, slo_empty = _serve(FaultPlan())
    assert server_empty.fault_injector is None, \
        "an empty plan must not even build an injector"
    assert server_none.decision_log_lines() == server_empty.decision_log_lines()
    assert slo_none.format() == slo_empty.format()
    assert slo_none.availability == 1.0 and slo_none.degraded_entries == 0


def test_replica_crash_run_loses_nothing_and_logs_the_history():
    server, slo = _serve(_crash_plan())
    assert slo.replica_crashes == 1 and slo.replica_recoveries == 1
    assert slo.redispatched_rows > 0
    # 4000us outage of 1-in-4 replicas over an 8000us horizon.
    assert slo.availability == pytest.approx(1.0 - 4_000.0 / (8_000.0 * 4))
    assert slo.requests - slo.completed - slo.gave_up == 0, \
        "every request must reach a terminal outcome"
    lines = server.decision_log_lines()
    for marker in ("replica-crash", "replica-recover", "redispatch",
                   "degrade", "restore"):
        assert any(marker in line for line in lines), marker
    assert slo.degraded_entries == 1


def test_fault_log_replays_line_identically():
    plan = FaultPlan.seeded(7, horizon_us=HORIZON_US, num_replicas=4,
                            crash_rate_per_sec=250.0, mean_downtime_us=2_000.0,
                            frame_loss_per_sec=125.0)
    server_a, _ = _serve(plan)
    server_b, _ = _serve(plan)
    log_a = server_a.decision_log_lines()
    assert log_a == server_b.decision_log_lines()
    assert any("replica-crash" in line for line in log_a)


def test_degraded_admission_tracks_surviving_capacity():
    server, _ = _serve(_crash_plan())
    # After the run the fleet is whole again: the window is back to full.
    assert server.effective_capacity() == SERVE_KW["queue_capacity"]
    # While one of four replicas was down the window was 3/4 of full.
    degrade_lines = [line for line in server.decision_log_lines()
                     if " degrade " in f" {line} "]
    assert any("window=48" in line and "capacity_scale=0.75" in line
               for line in degrade_lines), degrade_lines
    control, slo_control = _serve(_crash_plan(), degraded=False)
    assert slo_control.degraded_entries == 0
    assert control.effective_capacity() == SERVE_KW["queue_capacity"]
    assert not any("degrade" in line for line in control.decision_log_lines()), \
        "the no-degrade control must never scale admission"


def test_frame_faults_are_survived_and_counted_once():
    plan = FaultPlan(events=(
        FaultEvent(1_000.0, FRAME_DROP),
        FaultEvent(3_000.0, FRAME_CORRUPT),
    ))
    server, slo = _serve(plan)
    assert slo.corrupt_frames == 1, \
        "one corrupted frame is one incident, not one per resync step"
    lines = server.decision_log_lines()
    assert any(FRAME_DROP in line for line in lines)
    assert any(FRAME_CORRUPT in line for line in lines)
    assert any("corrupt-frame" in line for line in lines)
    # The run still completes: corruption never poisons the stream.
    assert slo.completed > 0


def test_replica_slow_fault_stretches_batches():
    slow_plan = FaultPlan(events=(
        FaultEvent(1_000.0, REPLICA_SLOW, 0, param=4.0,
                   duration_us=6_000.0),))
    _, slo_slow = _serve(slow_plan)
    _, slo_fast = _serve(None)
    assert slo_slow.latency_us[99.0] > slo_fast.latency_us[99.0], \
        "a 4x slowdown of one replica must surface in tail latency"


# --------------------------------------------------------- multiprocess tier
ENV_KW = dict(num_workers=4, steps_per_worker=6, seed=3, profile=True)
SP_KW = dict(num_workers=4, board_size=5, num_simulations=8, games_per_worker=1,
             leaf_batch=2, batched_inference=True, scheduler="event", seed=11,
             profile=True)


def _env_signature(pool):
    runs = [(run.worker, run.total_time_us, run.result.steps,
             run.result.episodes, run.result.episode_rewards,
             [(t.obs.tobytes(), np.asarray(t.action).tobytes(), t.reward,
               t.next_obs.tobytes(), t.done) for t in run.result.transitions])
            for run in pool.runs]
    service = pool.inference_service
    return (runs, service.stats.engine_calls, service.stats.rows,
            service.routing_decisions(),
            [replica.free_us for replica in service.replicas])


def _selfplay_signature(pool):
    return [(run.worker, run.total_time_us, run.result.moves,
             run.result.black_wins,
             [(e.features.tobytes(), e.policy_target.tobytes(), e.value_target)
              for e in run.result.examples])
            for run in pool.runs]


def _shard_crash_plan(shard, after_results):
    return FaultPlan(events=(
        FaultEvent(0.0, SHARD_CRASH, shard, param=float(after_results)),))


def test_shard_crash_respawn_is_bit_identical():
    baseline = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                              process_backend="process")
    baseline.run()
    crashed = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                             process_backend="process",
                             fault_plan=_shard_crash_plan(1, 3))
    crashed.run()
    assert _env_signature(crashed) == _env_signature(baseline)
    runner = crashed.parallel_runner
    assert runner.respawns == 1
    assert runner.fault_log[0] == "shard-crash-armed shard=1 after_results=3"
    assert runner.fault_log[1].startswith("shard-respawn shard=1 ")


def test_empty_plan_is_bit_identical_at_the_parallel_tier():
    baseline = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                              process_backend="process")
    baseline.run()
    armed = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                           process_backend="process", fault_plan=FaultPlan())
    armed.run()
    assert _env_signature(armed) == _env_signature(baseline)
    runner = armed.parallel_runner
    assert runner.respawns == 0 and runner.fault_log == []
    # No journaling overhead on the empty plan.
    assert all(channel._journal is None for channel in runner.channels)


@pytest.mark.parametrize("after_results", [1, 2, 3, 99])
def test_shard_crash_at_every_results_boundary(after_results):
    # A 2-worker/3-step run sends each shard 3 results messages; k=99 never
    # fires (the armed counter outlives the run) and must also be identical.
    kw = dict(num_workers=2, steps_per_worker=3, seed=5)
    sequential = EnvRolloutPool("Hopper", **kw)
    sequential.run()
    crashed = EnvRolloutPool("Hopper", **kw, num_processes=2,
                             process_backend="process",
                             fault_plan=_shard_crash_plan(0, after_results))
    crashed.run()
    assert _env_signature(crashed) == _env_signature(sequential)
    expected = 1 if after_results <= 3 else 0
    assert crashed.parallel_runner.respawns == expected


def test_both_shards_crashing_still_merges_identically():
    baseline = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                              process_backend="process")
    baseline.run()
    plan = FaultPlan(events=(
        FaultEvent(0.0, SHARD_CRASH, 0, param=2.0),
        FaultEvent(0.0, SHARD_CRASH, 1, param=4.0),
    ))
    crashed = EnvRolloutPool("Pong", **ENV_KW, num_processes=2,
                             process_backend="process", fault_plan=plan)
    crashed.run()
    assert _env_signature(crashed) == _env_signature(baseline)
    assert crashed.parallel_runner.respawns == 2


def _store_digest(root):
    """Byte-level digest of every file in a TraceDB store directory."""
    digests = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


#: pool kind -> (pool factory, run signature)
SHARD_CRASH_POOLS = {
    "selfplay": (lambda **kw: SelfPlayPool(**SP_KW, **kw), _selfplay_signature),
    "envrollout": (lambda **kw: EnvRolloutPool("Pong", **ENV_KW, **kw), _env_signature),
}


@pytest.mark.parametrize("kind", sorted(SHARD_CRASH_POOLS))
def test_shard_crash_keeps_trace_store_byte_identical(tmp_path, kind):
    # The crashed shard's drivers were blocked inside open annotations
    # (self-play's tree search, env rollout's inference); journal replay must
    # rebuild them so the merged store matches the uncrashed run's bytes.
    make_pool, signature = SHARD_CRASH_POOLS[kind]
    baseline = make_pool(trace_dir=str(tmp_path / "base"), num_processes=2,
                         process_backend="process")
    baseline.run()
    crashed = make_pool(trace_dir=str(tmp_path / "crash"), num_processes=2,
                        process_backend="process", fault_plan=_shard_crash_plan(1, 2))
    crashed.run()
    assert crashed.parallel_runner.respawns == 1
    assert signature(crashed) == signature(baseline)
    assert _store_digest(tmp_path / "crash") == _store_digest(tmp_path / "base"), \
        "the respawned shard's streamed trace store must merge byte-identically"


# A pool's fault plan is read only by the multiprocess runner, and only for
# shard crashes; a plan it could not act on is an argument error, not a
# silently fault-free run.
@pytest.mark.parametrize("parallel", [{}, {"num_processes": 2, "process_backend": "inline"}],
                         ids=["sequential", "inline"])
def test_pool_fault_plan_requires_the_process_backend(parallel):
    for make_pool, _ in SHARD_CRASH_POOLS.values():
        with pytest.raises(ValueError, match="fault_plan requires num_processes"):
            make_pool(fault_plan=_shard_crash_plan(1, 2), **parallel)


def test_pool_fault_plan_holds_only_shard_crashes():
    plan = FaultPlan(events=(FaultEvent(0.0, SHARD_CRASH, 1, param=2.0),
                             FaultEvent(50.0, REPLICA_CRASH, 0)))
    with pytest.raises(ValueError, match=r"only shard-crash events, not \['replica-crash'\]"):
        EnvRolloutPool("Pong", **ENV_KW, num_processes=2, process_backend="process",
                       fault_plan=plan)


@pytest.mark.parametrize("num_processes, target", [(2, 2), (2, -1), (8, 4)])
def test_pool_fault_plan_targets_an_existing_shard(num_processes, target):
    # Four workers never make more than four shards, whatever num_processes says.
    with pytest.raises(ValueError, match=rf"targets shards \[{target}\]"):
        EnvRolloutPool("Pong", **ENV_KW, num_processes=num_processes,
                       process_backend="process", fault_plan=_shard_crash_plan(target, 2))
