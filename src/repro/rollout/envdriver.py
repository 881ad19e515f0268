"""Stepwise rollout driver for any registered simulator.

:class:`EnvRolloutDriver` runs one worker's gym-style environment
(``repro.sim``) as a :class:`~repro.rollout.driver.StepwiseDriver`: every
env step needs one policy evaluation, which the driver *submits* to the
shared batched :class:`~repro.rollout.inference.InferenceService` instead
of evaluating in place — then suspends with its ``inference`` annotation
held open until the scheduler serves the batch.  Interleaved across many
workers by the :class:`~repro.rollout.scheduler.PoolScheduler`, the
per-step evaluations of a whole worker fleet coalesce into shared engine
calls, exactly the way the Minigo self-play leaves do — this is the
vectorized DQN/PPO-style collection loop of the workload zoo.

One ``step()`` is one schedulable unit:

* first step — reset the env (inside a ``simulation`` operation) and
  submit the initial observation; suspend.
* every later step — take the served policy row, pick an action through
  the driver's :class:`ActionPolicy`, advance the env one transition
  (inside a ``simulation`` operation), record the transition, and submit
  the next observation; suspend.  When the step budget is exhausted the
  driver finishes instead of submitting.

The policy rows come back as ``(out, value)`` pairs under the service's
``forward`` contract: discrete actors receive softmax probabilities
(sampled or argmax'd), continuous actors receive raw action rows to which
exploration noise is added (the env clips to its action space).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..backend.context import use_engine
from .driver import StepwiseDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiler.api import Profiler
    from ..sim.base import Env
    from .inference import InferenceClient, InferenceTicket

#: Operation annotation names — aligned with the serial collection loops in
#: ``repro.rl.base`` so overlap breakdowns group the same way either path.
OP_INFERENCE = "inference"
OP_SIMULATION = "simulation"
PHASE_DATA_COLLECTION = "data_collection"


@dataclass
class Transition:
    """One recorded env transition (the replay/rollout buffer row)."""

    obs: np.ndarray
    action: object
    reward: float
    next_obs: np.ndarray
    done: bool


@dataclass
class EnvRolloutResult:
    """Output of one rollout driver: counters plus the recorded transitions."""

    worker: str
    steps: int = 0
    episodes: int = 0
    episode_rewards: List[float] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)


class ActionPolicy:
    """Maps one served policy row to an action (pure Python, no engine calls).

    ``out_row``/``value_row`` are this driver's slice of the service batch;
    ``rng`` is the driver's private generator (one stream per worker, so
    schedules don't perturb other workers' action draws); ``timestep`` is
    the driver's running step count (for schedules like epsilon decay).
    """

    def __call__(self, out_row: np.ndarray, value_row: float, *,
                 rng: np.random.Generator, env: "Env", timestep: int):
        raise NotImplementedError


class SampledDiscretePolicy(ActionPolicy):
    """PPO/A2C-style categorical sampling from softmax probabilities."""

    def __call__(self, out_row, value_row, *, rng, env, timestep):
        probs = np.asarray(out_row, dtype=np.float64)
        probs = probs / probs.sum()
        return int(rng.choice(probs.shape[0], p=probs))


class EpsilonGreedyPolicy(ActionPolicy):
    """DQN-style argmax with linearly decaying exploration.

    Works on the softmax rows the default service forward returns because
    ``argmax(softmax(q)) == argmax(q)``.
    """

    def __init__(self, epsilon_start: float = 1.0, epsilon_end: float = 0.05,
                 decay_steps: int = 200) -> None:
        self.epsilon_start = epsilon_start
        self.epsilon_end = epsilon_end
        self.decay_steps = max(1, decay_steps)

    def epsilon(self, timestep: int) -> float:
        frac = min(timestep / self.decay_steps, 1.0)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac

    def __call__(self, out_row, value_row, *, rng, env, timestep):
        if rng.random() < self.epsilon(timestep):
            return int(rng.integers(env.action_dim))
        return int(np.argmax(out_row))


class GaussianNoisePolicy(ActionPolicy):
    """DDPG/TD3-style continuous control: actor output plus exploration noise.

    The raw action row (a tanh-bounded actor mean under the zoo's
    continuous forward) gets additive gaussian noise; the env clips the
    result to its action space.
    """

    def __init__(self, noise_scale: float = 0.1) -> None:
        self.noise_scale = noise_scale

    def __call__(self, out_row, value_row, *, rng, env, timestep):
        action = np.asarray(out_row, dtype=np.float32)
        if self.noise_scale > 0:
            action = action + self.noise_scale * rng.standard_normal(action.shape).astype(np.float32)
        return action


class EnvRolloutDriver(StepwiseDriver):
    """One worker's env rollout as a resumable, scheduler-interleavable unit."""

    def __init__(self, env: "Env", client: "InferenceClient", policy: ActionPolicy,
                 num_steps: int, *, seed: int = 0,
                 profiler: Optional["Profiler"] = None) -> None:
        self.env = env
        self.system = env.system
        self.client = client
        self.engine = client.engine
        self.policy = policy
        self.num_steps = num_steps
        self.rng = np.random.default_rng(seed)
        self.profiler = profiler
        self.result = EnvRolloutResult(worker=self.system.worker)
        self.steps = 0  #: scheduler steps (boundary count), not env steps
        self._obs: Optional[np.ndarray] = None
        self._ticket: Optional["InferenceTicket"] = None
        self._infer_op = None
        self._episode_reward = 0.0
        self._finished = num_steps <= 0
        if profiler is not None:
            profiler.set_phase(PHASE_DATA_COLLECTION)

    # ------------------------------------------------------------- scheduling
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def blocked(self) -> bool:
        """Suspended at an inference boundary, ticket not yet served."""
        return self._ticket is not None and not self._ticket.done

    @property
    def now_us(self) -> float:
        return self.system.clock.now_us

    @property
    def worker_name(self) -> str:
        return self.system.worker

    def step(self) -> bool:
        """Advance by one unit of work; returns False once the budget is spent."""
        if self._finished:
            return False
        if self.blocked:
            raise RuntimeError(f"stepped driver of {self.system.worker!r} "
                               "while it is blocked on inference")
        self.steps += 1
        with use_engine(self.engine):
            if self._ticket is not None:
                self._resume()
            else:
                self._begin()
        return not self._finished

    # -------------------------------------------------------------- internals
    def _sim_op(self):
        if self.profiler is None:
            from contextlib import nullcontext
            return nullcontext()
        return self.profiler.operation(OP_SIMULATION)

    def _begin(self) -> None:
        with self._sim_op():
            self._obs = self.env.reset()
        self._submit()

    def _submit(self) -> None:
        """Queue this worker's next policy evaluation and suspend.

        The ``inference`` annotation opens *before* the submit and stays
        open across the suspension: the queueing delay and batch time the
        service later charges this worker land inside it, and the metadata
        dict (held by reference) receives the serving batch's attribution.
        """
        metadata = None
        if self.profiler is not None:
            metadata = {"rows": 1, "env": self.env.sim_id}
            self._infer_op = self.profiler.operation(OP_INFERENCE, metadata=metadata)
            self._infer_op.__enter__()
        if self.client.service.cache_enabled:
            key = self.env.state_key()
            if key is not None:
                metadata = metadata if metadata is not None else {}
                metadata["state_keys"] = [key]
        features = np.asarray(self._obs, dtype=np.float32).reshape(1, -1)
        self._ticket = self.client.submit(features, metadata=metadata)

    def _close_inference_op(self) -> None:
        if self._infer_op is not None:
            self._infer_op.__exit__(None, None, None)
            self._infer_op = None

    def _resume(self) -> None:
        out, values = self._ticket.result()
        self._ticket = None
        self._close_inference_op()
        action = self.policy(out[0], float(values[0]), rng=self.rng,
                             env=self.env, timestep=self.result.steps)
        with self._sim_op():
            next_obs, reward, done, _ = self.env.step(action)
        self.result.transitions.append(Transition(
            obs=self._obs, action=action, reward=reward, next_obs=next_obs, done=done))
        self.result.steps += 1
        self._episode_reward += reward
        if done:
            self.result.episodes += 1
            self.result.episode_rewards.append(self._episode_reward)
            self._episode_reward = 0.0
            if self.result.steps < self.num_steps:
                with self._sim_op():
                    next_obs = self.env.reset()
        self._obs = next_obs
        if self.result.steps >= self.num_steps:
            self._finished = True
            return
        self._submit()
