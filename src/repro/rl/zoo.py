"""Workload zoo: every sim x algorithm pair through the batched rollout stack.

:func:`make_zoo_pool` builds algorithm-*flavoured* collection: an
:class:`~repro.rollout.pool.EnvRolloutPool` whose action policy matches the
named algorithm family (epsilon-greedy argmax for DQN, categorical sampling
for PPO-style actors, gaussian exploration noise for DDPG-style continuous
control) over the pool's shared
:class:`~repro.rollout.pool.RolloutPolicyNet`.  This is what the
``zoosweep`` experiment grids over sims x algorithms x workers x replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..rollout.envdriver import (
    ActionPolicy,
    EpsilonGreedyPolicy,
    GaussianNoisePolicy,
    SampledDiscretePolicy,
)
from ..rollout.pool import EnvRolloutPool
from ..sim import registry
from ..system import System


@dataclass(frozen=True)
class ZooAlgorithm:
    """One algorithm family's collection behaviour in the zoo."""

    name: str
    supports_discrete: bool
    supports_continuous: bool
    kind: str  #: "value" (greedy), "policy" (sampling), "actor" (continuous)

    def make_policy(self, env, seed: int) -> ActionPolicy:
        if self.kind == "value":
            return EpsilonGreedyPolicy()
        if self.kind == "policy":
            return (SampledDiscretePolicy() if env.is_discrete
                    else GaussianNoisePolicy(noise_scale=0.1))
        return GaussianNoisePolicy(noise_scale=0.1)

    def supports(self, env) -> bool:
        return self.supports_discrete if env.is_discrete else self.supports_continuous


#: The algorithm families the zoosweep grids over.
ZOO_ALGORITHMS: Dict[str, ZooAlgorithm] = {
    "DQN": ZooAlgorithm("DQN", supports_discrete=True, supports_continuous=False,
                        kind="value"),
    "PPO": ZooAlgorithm("PPO", supports_discrete=True, supports_continuous=True,
                        kind="policy"),
    "DDPG": ZooAlgorithm("DDPG", supports_discrete=False, supports_continuous=True,
                         kind="actor"),
}


def algorithm_supports(sim: str, algorithm: str) -> bool:
    """Whether ``algorithm`` can act in ``sim``'s action space (cheap probe)."""
    spec = ZOO_ALGORITHMS[algorithm]
    env = registry.make(sim, System.create(seed=0), seed=0)
    return spec.supports(env)


def make_zoo_pool(sim: str, algorithm: str, num_workers: int = 8,
                  **pool_kwargs) -> EnvRolloutPool:
    """An :class:`EnvRolloutPool` whose action policy matches ``algorithm``."""
    spec = ZOO_ALGORITHMS[algorithm]
    return EnvRolloutPool(
        sim, num_workers,
        policy_factory=lambda env, seed: spec.make_policy(env, seed),
        **pool_kwargs)
