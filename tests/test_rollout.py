"""Tests for the env-agnostic rollout core (drivers, pool, rl attachment).

The synthetic-driver tests exercise the :class:`StepwiseDriver` contract
with no simulator (and no Go engine) behind it: suspend/resume at
inference boundaries, annotations held open across suspension, and
heap-vs-scan scheduler identity.
"""

import numpy as np
import pytest

from oracles.scan_scheduler import run_scan
from repro.backend.graph import GraphEngine
from repro.hw.gpu import GPUDevice
from repro.profiler.api import Profiler, ProfilerConfig
from repro.rollout import (
    FLUSH_UNBATCHED,
    EnvRolloutDriver,
    EnvRolloutPool,
    InferenceService,
    PoolScheduler,
    StepwiseDriver,
)
from repro.rollout.pool import RolloutPolicyNet
from repro.system import System

FEATURE_DIM = 4


class SyntheticDriver(StepwiseDriver):
    """Compute → submit → suspend → resume, with no env behind it."""

    def __init__(self, system, client, rounds, compute_us, *, profiler=None):
        self.system = system
        self.client = client
        self.rounds = rounds
        self.compute_us = compute_us
        self.profiler = profiler
        self.completed = 0
        self.results = []
        self.submit_times = []
        self._ticket = None
        self._op = None

    @property
    def finished(self):
        return self.completed >= self.rounds

    @property
    def blocked(self):
        return self._ticket is not None and not self._ticket.done

    @property
    def now_us(self):
        return self.system.clock.now_us

    @property
    def worker_name(self):
        return self.system.worker

    def step(self):
        if self.finished:
            return False
        if self.blocked:
            raise RuntimeError("stepped while blocked")
        if self._ticket is not None:
            out, values = self._ticket.result()
            self._ticket = None
            if self._op is not None:
                self._op.__exit__(None, None, None)
                self._op = None
            self.results.append((out.tobytes(), values.tobytes()))
            self.completed += 1
            if self.finished:
                return False
        self.system.clock.advance(self.compute_us)
        if self.profiler is not None:
            self._op = self.profiler.operation("inference")
            self._op.__enter__()
        self.submit_times.append(self.now_us)
        features = np.full((1, FEATURE_DIM), float(self.completed), dtype=np.float32)
        self._ticket = self.client.submit(features)
        return True


def _synthetic_pool(num_workers, rounds, *, compute_us=None, profile=False, seed=0):
    """num_workers synthetic drivers sharing one service on one device."""
    device = GPUDevice()
    network = RolloutPolicyNet(FEATURE_DIM, 3, (8,),
                               rng=np.random.default_rng(seed + 7))
    service = InferenceService(network, max_batch=num_workers,
                               primary_device=device, seed=seed)
    drivers, profilers = [], []
    for index in range(num_workers):
        system = System.create(seed=seed + index, device=device,
                               worker=f"synth_{index}")
        system.cuda.default_stream = index
        engine = GraphEngine(system, flavor="tensorflow")
        profiler = None
        if profile:
            profiler = Profiler(system, ProfilerConfig.full(),
                                worker=system.worker)
            profiler.attach(engine=engine)
        client = service.connect(system, engine)
        us = compute_us[index] if compute_us is not None else 10.0 * (index + 1)
        drivers.append(SyntheticDriver(system, client, rounds, us,
                                       profiler=profiler))
        profilers.append(profiler)
    scheduler = PoolScheduler(drivers, service)
    return scheduler, drivers, profilers, service


# ------------------------------------------------------------ driver protocol
def test_stepwise_driver_runnable_derivation():
    class Stub(StepwiseDriver):
        finished = False
        blocked = False

    stub = Stub()
    assert stub.runnable
    stub.blocked = True
    assert not stub.runnable
    stub.blocked, stub.finished = False, True
    assert not stub.runnable


def test_synthetic_driver_suspends_and_resumes():
    scheduler, drivers, _, service = _synthetic_pool(1, rounds=3)
    driver = drivers[0]
    assert driver.step()  # compute + submit
    assert driver.blocked and not driver.finished and not driver.runnable
    frozen = driver.now_us
    with pytest.raises(RuntimeError):
        driver.step()
    assert driver.now_us == frozen  # blocked clocks stand still
    scheduler.run()
    assert driver.finished and driver.completed == 3
    assert len(driver.results) == 3
    assert service.stats.rows == 3


def test_annotation_reopens_across_suspension():
    """The inference op opens before the submit and closes after the serve,
    so its span covers the suspension (queueing delay + batch time)."""
    scheduler, drivers, profilers, _ = _synthetic_pool(2, rounds=2, profile=True)
    scheduler.run()
    for driver, profiler in zip(drivers, profilers):
        trace = profiler.finalize()
        ops = [op for op in trace.operations if op.name == "inference"]
        assert len(ops) == driver.rounds
        for op, submitted in zip(ops, driver.submit_times):
            assert op.start_us <= submitted
            assert op.end_us > submitted  # stayed open across the suspension


def test_heap_and_scan_schedules_identical():
    """The lazy-heap scheduler replays the scan loop's decisions exactly."""
    compute = (7.0, 19.0, 3.0, 11.0)
    runs = {}
    for use_heap in (False, True):
        scheduler, drivers, _, _ = _synthetic_pool(4, rounds=5, compute_us=compute)
        (PoolScheduler.run if use_heap else run_scan)(scheduler)
        stats = scheduler.stats
        runs[use_heap] = (
            [d.results for d in drivers],
            [d.now_us for d in drivers],
            (stats.steps, stats.serves, stats.steps_per_worker),
        )
        assert (stats.heap_pops > 0) == use_heap
    assert runs[True] == runs[False]


# ------------------------------------------------------------- env rollout
def test_env_rollout_pool_batches_across_workers():
    pool = EnvRolloutPool("Pong", 4, steps_per_worker=6, seed=0)
    pool.run()
    stats = pool.inference_service.stats
    assert pool.total_steps() == 24
    assert stats.rows == 24
    assert stats.engine_calls == 6  # each wave coalesces all four workers
    assert stats.cross_worker_share == 1.0
    for run in pool.runs:
        assert run.result.steps == 6
        assert len(run.result.transitions) == 6


def test_env_rollout_pool_rerun_starts_on_an_idle_device():
    pool = EnvRolloutPool("Pong", 4, steps_per_worker=6, seed=0)
    pool.run()
    first = pool.device.activity
    pool.run()
    assert first and pool.device.activity == first


def test_env_rollout_unbatched_control_serves_serially():
    pool = EnvRolloutPool("Pong", 4, steps_per_worker=6, seed=0,
                          flush_policy=FLUSH_UNBATCHED)
    pool.run()
    stats = pool.inference_service.stats
    assert stats.engine_calls == stats.rows == 24
    assert stats.cross_worker_share == 0.0


@pytest.mark.parametrize("sim", ["Pong", "Hopper"])
def test_env_rollout_pool_is_deterministic(sim):
    def signature(pool):
        return [
            [(t.obs.tobytes(), np.asarray(t.action).tobytes(), t.reward,
              t.next_obs.tobytes(), t.done)
             for t in run.result.transitions]
            for run in pool.runs
        ], [run.total_time_us for run in pool.runs]

    first = EnvRolloutPool(sim, 3, steps_per_worker=5, seed=11)
    second = EnvRolloutPool(sim, 3, steps_per_worker=5, seed=11)
    first.run()
    second.run()
    assert signature(first) == signature(second)


def test_env_rollout_profile_traces_inference_and_simulation():
    pool = EnvRolloutPool("Walker2D", 2, steps_per_worker=4, seed=0,
                          profile=True)
    pool.run()
    for run in pool.runs:
        names = {op.name for op in run.trace.operations}
        assert names == {"inference", "simulation"}
        infer_ops = [op for op in run.trace.operations if op.name == "inference"]
        assert len(infer_ops) == 4  # one inference boundary per env step


def test_env_rollout_driver_rejects_step_while_blocked():
    pool = EnvRolloutPool("Pong", 2, steps_per_worker=2, seed=0)
    stacks = [pool._make_worker_stack(i) for i in range(2)]
    service = InferenceService(RolloutPolicyNet(
        stacks[0][2].observation_dim, stacks[0][2].action_dim, (8,),
        rng=np.random.default_rng(3)), primary_device=pool.device)
    system, engine, env, _ = stacks[0]
    client = service.connect(system, engine)
    from repro.rollout.envdriver import SampledDiscretePolicy
    driver = EnvRolloutDriver(env, client, SampledDiscretePolicy(), 2)
    driver.step()
    assert driver.blocked
    with pytest.raises(RuntimeError):
        driver.step()


def test_env_rollout_pool_validates_arguments():
    with pytest.raises(ValueError):
        EnvRolloutPool("Pong", 0)
    with pytest.raises(ValueError):
        EnvRolloutPool("Pong", 2, steps_per_worker=0)
    with pytest.raises(ValueError):
        EnvRolloutPool("Pong", 2, flush_policy="nonsense")
    with pytest.raises(ValueError):
        EnvRolloutPool("Pong", 2, routing="bogus")
    with pytest.raises(KeyError):
        EnvRolloutPool("NotARealSim", 2).run()


# ------------------------------------------------- minigo rides the same core
def test_minigo_drivers_and_shims_are_the_rollout_core():
    from repro import minigo, rollout
    from repro.minigo.selfplay import GameDriver

    assert issubclass(GameDriver, StepwiseDriver)
    assert minigo.InferenceService is rollout.InferenceService
    assert minigo.PoolScheduler is rollout.PoolScheduler
    # The package-level service and scheduler names are the core's objects.
    from repro.rollout import inference, scheduler
    shared = [name for name in minigo.__all__
              if hasattr(inference, name) or hasattr(scheduler, name)]
    assert {"InferenceService", "InferenceTicket", "PoolScheduler", "SchedulerStats"} <= set(shared)
    for name in shared:
        core = inference if hasattr(inference, name) else scheduler
        assert getattr(minigo, name) is getattr(core, name)


def test_zoo_algorithm_support_matrix():
    from repro.rl import algorithm_supports

    assert algorithm_supports("Pong", "DQN")
    assert not algorithm_supports("Walker2D", "DQN")
    assert not algorithm_supports("Pong", "DDPG")
    assert algorithm_supports("Hopper", "DDPG")
    assert algorithm_supports("Pong", "PPO") and algorithm_supports("Hopper", "PPO")
