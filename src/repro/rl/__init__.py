"""RL algorithms, framework adapters, and experience buffers."""

from typing import Dict, Type

from .a2c import A2C
from .base import (
    ALGORITHM_DEFAULTS,
    AlgorithmConfig,
    BaseAlgorithm,
    OffPolicyAlgorithm,
    OnPolicyAlgorithm,
    OP_BACKPROPAGATION,
    OP_INFERENCE,
    OP_SIMULATION,
    PHASE_DATA_COLLECTION,
    PHASE_SGD_UPDATES,
    TrainResult,
    default_config,
)
from .buffers import Batch, ReplayBuffer, Rollout, RolloutBuffer
from .ddpg import DDPG
from .dqn import DQN
from .frameworks import (
    REAGENT,
    STABLE_BASELINES,
    TABLE1,
    TF_AGENTS_AUTOGRAPH,
    TF_AGENTS_EAGER,
    FrameworkAdapter,
    FrameworkSpec,
    default_framework,
    make_engine,
)
from .networks import (
    CategoricalPolicy,
    DeterministicActor,
    GaussianActor,
    QCritic,
    TwinQCritic,
    ValueCritic,
)
from .noise import GaussianNoise, OrnsteinUhlenbeckNoise
from .ppo import PPO2
from .sac import SAC
from .td3 import TD3
from .zoo import (
    ZOO_ALGORITHMS,
    ZooAlgorithm,
    algorithm_supports,
    make_zoo_pool,
)

#: Algorithm registry used by the experiment harness and the CLI.
ALGORITHMS: Dict[str, Type[BaseAlgorithm]] = {
    "DQN": DQN,
    "DDPG": DDPG,
    "TD3": TD3,
    "SAC": SAC,
    "A2C": A2C,
    "PPO2": PPO2,
    # Alias: the simulator survey (Figure 7) refers to PPO2 simply as PPO.
    "PPO": PPO2,
}

#: On/off-policy classification used by finding F.10.
ON_POLICY_ALGORITHMS = ("A2C", "PPO2")
OFF_POLICY_ALGORITHMS = ("DQN", "DDPG", "TD3", "SAC")


def make_algorithm(name: str, env, framework, **kwargs) -> BaseAlgorithm:
    """Instantiate an algorithm by name."""
    try:
        cls = ALGORITHMS[name.upper()]
    except KeyError as exc:
        raise KeyError(f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}") from exc
    return cls(env, framework, **kwargs)


__all__ = [
    "A2C",
    "ALGORITHM_DEFAULTS",
    "ALGORITHMS",
    "AlgorithmConfig",
    "BaseAlgorithm",
    "Batch",
    "CategoricalPolicy",
    "DDPG",
    "DQN",
    "DeterministicActor",
    "FrameworkAdapter",
    "FrameworkSpec",
    "GaussianActor",
    "GaussianNoise",
    "OFF_POLICY_ALGORITHMS",
    "ON_POLICY_ALGORITHMS",
    "OP_BACKPROPAGATION",
    "OP_INFERENCE",
    "OP_SIMULATION",
    "OffPolicyAlgorithm",
    "OnPolicyAlgorithm",
    "OrnsteinUhlenbeckNoise",
    "PHASE_DATA_COLLECTION",
    "PHASE_SGD_UPDATES",
    "PPO2",
    "QCritic",
    "REAGENT",
    "ReplayBuffer",
    "Rollout",
    "RolloutBuffer",
    "SAC",
    "STABLE_BASELINES",
    "TABLE1",
    "TD3",
    "TF_AGENTS_AUTOGRAPH",
    "TF_AGENTS_EAGER",
    "TrainResult",
    "TwinQCritic",
    "ValueCritic",
    "ZOO_ALGORITHMS",
    "ZooAlgorithm",
    "algorithm_supports",
    "default_config",
    "default_framework",
    "make_algorithm",
    "make_engine",
    "make_zoo_pool",
]
