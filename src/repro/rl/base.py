"""Algorithm base classes: configuration, training loops and result records.

The training loops are annotated with the same three high-level operations
the paper scopes its analysis to — ``inference``, ``simulation`` and
``backpropagation`` — and with ``data_collection`` / ``sgd_updates`` phases,
so any algorithm trained through these base classes can be profiled by
RL-Scope out of the box.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend.context import use_engine
from ..profiler.api import Profiler
from ..sim.base import Env
from ..sim.spaces import Box, Discrete
from ..system import System
from .buffers import ReplayBuffer, RolloutBuffer
from .frameworks import FrameworkAdapter

OP_INFERENCE = "inference"
OP_SIMULATION = "simulation"
OP_BACKPROPAGATION = "backpropagation"

PHASE_DATA_COLLECTION = "data_collection"
PHASE_SGD_UPDATES = "sgd_updates"


@dataclass
class AlgorithmConfig:
    """Hyperparameters shared across the algorithm implementations.

    Defaults follow the stable-baselines zoo settings the paper pre-tuned;
    per-algorithm defaults (e.g. TD3's 1000-step ``train_freq`` vs DDPG's 100,
    the root of finding F.5) are applied by :func:`default_config`.
    """

    hidden_sizes: Tuple[int, ...] = (256, 256)
    gamma: float = 0.99
    batch_size: int = 64
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    buffer_size: int = 50_000
    warmup_steps: int = 64
    train_freq: int = 100          #: consecutive simulator steps per collection cycle
    gradient_steps: int = 100      #: gradient updates per collection cycle
    tau: float = 0.005
    exploration_noise: float = 0.1
    # TD3
    policy_delay: int = 2
    target_noise: float = 0.2
    target_noise_clip: float = 0.5
    # SAC
    alpha: float = 0.2
    # On-policy
    n_steps: int = 64
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    n_epochs: int = 4
    n_minibatches: int = 4
    clip_range: float = 0.2
    # DQN
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 2_000
    target_update_interval: int = 250


#: Per-algorithm hyperparameter overrides (stable-baselines zoo style).
ALGORITHM_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "DDPG": {"train_freq": 100, "gradient_steps": 100, "hidden_sizes": (256, 256)},
    "TD3": {"train_freq": 1000, "gradient_steps": 1000, "hidden_sizes": (256, 256)},
    "SAC": {"train_freq": 64, "gradient_steps": 64, "hidden_sizes": (256, 256)},
    "DQN": {"train_freq": 4, "gradient_steps": 1, "hidden_sizes": (64, 64), "batch_size": 32},
    "A2C": {"n_steps": 16, "hidden_sizes": (64, 64), "entropy_coef": 0.01},
    "PPO2": {"n_steps": 128, "hidden_sizes": (64, 64), "n_epochs": 4, "n_minibatches": 4},
}


def default_config(algo: str, **overrides: Any) -> AlgorithmConfig:
    """Build the default configuration for ``algo`` with optional overrides."""
    config = AlgorithmConfig()
    defaults = ALGORITHM_DEFAULTS.get(algo.upper(), {})
    config = replace(config, **defaults)
    if overrides:
        config = replace(config, **overrides)
    return config


@dataclass
class TrainResult:
    """Summary of one training run."""

    algorithm: str
    timesteps: int
    episodes: int
    episode_rewards: List[float] = field(default_factory=list)
    losses: Dict[str, List[float]] = field(default_factory=dict)
    gradient_updates: int = 0

    def record_loss(self, name: str, value: float) -> None:
        self.losses.setdefault(name, []).append(float(value))


class BaseAlgorithm:
    """Common plumbing: engine activation, profiler annotations, prediction."""

    name: str = "base"
    on_policy: bool = False

    def __init__(
        self,
        env: Env,
        framework: FrameworkAdapter,
        *,
        config: Optional[AlgorithmConfig] = None,
        profiler: Optional[Profiler] = None,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.framework = framework
        self.engine = framework.engine
        self.system: System = framework.system
        self.profiler = profiler
        self.config = config if config is not None else default_config(self.name)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.net_rng = np.random.default_rng(seed + 1)
        self.obs_dim = env.observation_dim
        self.action_dim = env.action_dim if isinstance(env.action_space, Box) else env.action_space.n
        with use_engine(self.engine):
            self._build()

    # ------------------------------------------------------------ subclasses
    def _build(self) -> None:
        """Create networks, optimizers and compiled functions."""
        raise NotImplementedError

    def train(self, total_timesteps: int) -> TrainResult:
        raise NotImplementedError

    def predict(self, obs: np.ndarray) -> np.ndarray:
        """Greedy action for evaluation (no exploration noise)."""
        raise NotImplementedError

    # -------------------------------------------------------------- profiling
    def _op(self, name: str):
        return self.profiler.operation(name) if self.profiler is not None else nullcontext()

    def _set_phase(self, name: str) -> None:
        if self.profiler is not None:
            self.profiler.set_phase(name)

    # ------------------------------------------------------------------ misc
    def _batch_obs(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float32).reshape(1, -1)


class OffPolicyAlgorithm(BaseAlgorithm):
    """Replay-buffer algorithms (DQN, DDPG, TD3, SAC).

    The training loop alternates data-collection cycles of ``train_freq``
    simulator steps with ``gradient_steps`` minibatch updates, the structure
    whose hyperparameters drive finding F.5.
    """

    def __init__(self, env: Env, framework: FrameworkAdapter, **kwargs: Any) -> None:
        super().__init__(env, framework, **kwargs)
        self.buffer = ReplayBuffer(
            self.config.buffer_size, self.obs_dim,
            self.action_dim if isinstance(env.action_space, Box) else 1,
            system=self.system, seed=self.seed + 2,
        )
        self._collect_compiled: Optional[Callable] = None

    # ------------------------------------------------------------ subclasses
    def _explore_action(self, obs: np.ndarray, timestep: int) -> np.ndarray:
        """Action used while collecting training data (includes exploration)."""
        raise NotImplementedError

    def _update(self, batch) -> Dict[str, float]:
        """One gradient update on a replay minibatch; returns named losses."""
        raise NotImplementedError

    # ---------------------------------------------------------------- training
    def train(self, total_timesteps: int) -> TrainResult:
        if total_timesteps <= 0:
            raise ValueError("total_timesteps must be positive")
        cfg = self.config
        result = TrainResult(algorithm=self.name, timesteps=total_timesteps, episodes=0)
        if self._collect_compiled is None:
            self._collect_compiled = self.framework.compile_collect(self._collect_loop)
        with use_engine(self.engine):
            self._set_phase(PHASE_DATA_COLLECTION)
            obs = self.env.reset()
            self._episode_reward = 0.0
            steps = 0
            timestep = 0
            while steps < total_timesteps:
                chunk = min(cfg.train_freq, total_timesteps - steps)
                self._set_phase(PHASE_DATA_COLLECTION)
                obs, timestep = self._collect_compiled(obs, chunk, timestep, result)
                steps += chunk
                if len(self.buffer) >= max(cfg.batch_size, cfg.warmup_steps):
                    self._set_phase(PHASE_SGD_UPDATES)
                    n_updates = max(1, int(round(cfg.gradient_steps * chunk / cfg.train_freq)))
                    for _ in range(n_updates):
                        # Minibatch sampling happens in Python, on the critical path.
                        batch = self.buffer.sample(cfg.batch_size)
                        with self._op(OP_BACKPROPAGATION):
                            losses = self._update(batch)
                        result.gradient_updates += 1
                        for loss_name, value in losses.items():
                            result.record_loss(loss_name, value)
        return result

    def _collect_loop(self, obs: np.ndarray, n_steps: int, timestep: int, result: TrainResult):
        """Collect ``n_steps`` transitions (this whole loop runs in-graph under Autograph)."""
        cfg = self.config
        for _ in range(n_steps):
            with self._op(OP_INFERENCE):
                if timestep < cfg.warmup_steps:
                    action = self._random_action()
                else:
                    action = self._explore_action(obs, timestep)
            with self._op(OP_SIMULATION):
                next_obs, reward, done, _ = self.framework.env_call(self.env.step, action)
            self.buffer.add(obs, self._store_action(action), reward, next_obs, done)
            self._episode_reward += reward
            timestep += 1
            if done:
                result.episodes += 1
                result.episode_rewards.append(self._episode_reward)
                self._episode_reward = 0.0
                with self._op(OP_SIMULATION):
                    next_obs = self.framework.env_call(self.env.reset)
            obs = next_obs
        return obs, timestep

    # ------------------------------------------------------------------ utils
    def _random_action(self):
        if isinstance(self.env.action_space, Discrete):
            return self.env.action_space.sample(self.rng)
        return self.env.action_space.sample(self.rng)

    def _store_action(self, action):
        """Shape the action for replay storage (discrete actions stored as a scalar column)."""
        if isinstance(self.env.action_space, Discrete):
            return np.array([action], dtype=np.float32)
        return action


class OnPolicyAlgorithm(BaseAlgorithm):
    """Rollout-based algorithms (A2C, PPO2)."""

    on_policy = True

    def __init__(self, env: Env, framework: FrameworkAdapter, **kwargs: Any) -> None:
        super().__init__(env, framework, **kwargs)
        cfg = self.config
        self.rollout = RolloutBuffer(
            cfg.n_steps, self.obs_dim,
            self.action_dim if isinstance(env.action_space, Box) else 1,
            gamma=cfg.gamma, gae_lambda=cfg.gae_lambda, system=self.system,
        )
        self._collect_compiled: Optional[Callable] = None

    # ------------------------------------------------------------ subclasses
    def _policy_step(self, obs: np.ndarray) -> Tuple[np.ndarray, float, float]:
        """Sampled action, its log-probability and the value estimate for ``obs``."""
        raise NotImplementedError

    def _update_from_rollout(self, rollout, result: TrainResult) -> None:
        """Gradient updates from one finished rollout (annotates backpropagation)."""
        raise NotImplementedError

    def _value_estimate(self, obs: np.ndarray) -> float:
        raise NotImplementedError

    # ---------------------------------------------------------------- training
    def train(self, total_timesteps: int) -> TrainResult:
        if total_timesteps <= 0:
            raise ValueError("total_timesteps must be positive")
        cfg = self.config
        result = TrainResult(algorithm=self.name, timesteps=total_timesteps, episodes=0)
        if self._collect_compiled is None:
            self._collect_compiled = self.framework.compile_collect(self._collect_loop)
        with use_engine(self.engine):
            obs = self.env.reset()
            self._episode_reward = 0.0
            steps = 0
            while steps < total_timesteps:
                chunk = min(cfg.n_steps, total_timesteps - steps)
                self._set_phase(PHASE_DATA_COLLECTION)
                obs = self._collect_compiled(obs, chunk, result)
                steps += chunk
                with self._op(OP_INFERENCE):
                    last_value = self._value_estimate(obs)
                rollout = self.rollout.finish(last_value)
                self._set_phase(PHASE_SGD_UPDATES)
                self._update_from_rollout(rollout, result)
                self.rollout.reset()
        return result

    def _collect_loop(self, obs: np.ndarray, n_steps: int, result: TrainResult) -> np.ndarray:
        for _ in range(n_steps):
            with self._op(OP_INFERENCE):
                action, log_prob, value = self._policy_step(obs)
            env_action = self._env_action(action)
            with self._op(OP_SIMULATION):
                next_obs, reward, done, _ = self.framework.env_call(self.env.step, env_action)
            self.rollout.add(obs, self._store_action(action), reward, value, log_prob, done)
            self._episode_reward += reward
            if done:
                result.episodes += 1
                result.episode_rewards.append(self._episode_reward)
                self._episode_reward = 0.0
                with self._op(OP_SIMULATION):
                    next_obs = self.framework.env_call(self.env.reset)
            obs = next_obs
        return obs

    # ------------------------------------------------------------------ utils
    def _env_action(self, action):
        if isinstance(self.env.action_space, Box):
            return self.env.action_space.clip(action)
        return int(action)

    def _store_action(self, action):
        if isinstance(self.env.action_space, Discrete):
            return np.array([action], dtype=np.float32)
        return action
