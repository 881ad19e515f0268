"""Neural-network layers built on the functional API.

The networks used by the paper's workloads are small MLPs (two hidden layers
of a few hundred units), which is itself one of the structural reasons RL is
less GPU-bound than supervised learning (Section 2.2 of the paper).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from .context import current_engine
from .tensor import Parameter, Tensor

Activation = Optional[str]

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "softplus": F.softplus,
}


def _activation_fn(name: Activation) -> Optional[Callable[[Tensor], Tensor]]:
    if name is None or name == "linear":
        return None
    try:
        return _ACTIVATIONS[name]
    except KeyError as exc:
        raise ValueError(f"unknown activation {name!r}") from exc


class Module:
    """Minimal layer base class: parameter collection and state dicts."""

    def parameters(self) -> List[Parameter]:
        raise NotImplementedError

    def state_dict(self) -> List[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(params) != len(state):
            raise ValueError(f"state has {len(state)} arrays but module has {len(params)} parameters")
        for p, value in zip(params, state):
            p.assign(value)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Dense(Module):
    """Fully connected layer ``y = act(x @ W + b)``.

    When the current engine fuses linear layers (PyTorch), the forward pass
    uses one ``addmm`` op; otherwise a ``matmul`` followed by ``bias_add``,
    which is one source of the higher op/transition counts of the TensorFlow
    eager implementation (finding F.3).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        activation: Activation = None,
        name: str = "dense",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-limit, limit, size=(in_features, out_features)), name=f"{name}/W")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}/b")
        self.activation = activation
        self.name = name

    def __call__(self, x: Tensor) -> Tensor:
        engine = current_engine()
        if engine.fuses_linear:
            out = F.addmm(x, self.weight, self.bias)
        else:
            out = F.bias_add(F.matmul(x, self.weight), self.bias)
        act = _activation_fn(self.activation)
        return act(out) if act is not None else out

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class MLP(Module):
    """Multi-layer perceptron with a configurable output activation."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        *,
        activation: Activation = "relu",
        out_activation: Activation = None,
        name: str = "mlp",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = [in_features, *hidden_sizes, out_features]
        self.layers: List[Dense] = []
        for i in range(len(sizes) - 1):
            is_last = i == len(sizes) - 2
            self.layers.append(
                Dense(
                    sizes[i],
                    sizes[i + 1],
                    activation=out_activation if is_last else activation,
                    name=f"{name}/dense_{i}",
                    rng=rng,
                )
            )
        self.name = name

    def __call__(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.layers:
            out = layer(out)
        return out

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


def hard_update(target: Module, source: Module) -> None:
    """Copy source parameters into target (no backend cost: initialisation-time)."""
    target.load_state_dict(source.state_dict())


def soft_update(target: Module, source: Module, tau: float, *, separate_calls: bool = False) -> None:
    """Polyak averaging of target networks: ``target = (1 - tau) * target + tau * source``.

    ``separate_calls=True`` reproduces the stable-baselines DDPG behaviour
    called out in finding F.4: each parameter's update is issued as its own
    backend call instead of being bundled into one.
    """
    from ..cuda.kernels import elementwise_kernel  # local import to avoid cycles

    engine = current_engine()
    pairs = list(zip(target.parameters(), source.parameters()))
    tau = float(tau)
    # One scratch vector holds every ``tau * source`` product in turn.
    scratch = np.empty(max((p.size for p, _ in pairs), default=0), dtype=np.float32)

    def _update(pairs_chunk):
        for target_param, source_param in pairs_chunk:
            engine.account_op("soft_update", target_param.shape,
                              lambda: [elementwise_kernel(target_param.shape, 3.0, name="axpy")])
            # The float32 products and sum of ``(1 - tau) * target + tau *
            # source``, in that order, into one fresh array the parameter takes over.
            shape = target_param.data.shape
            if source_param.data.shape != shape:
                raise ValueError(f"cannot soft-update a parameter of shape {shape} "
                                 f"from one of shape {source_param.data.shape}")
            new = np.multiply(target_param.data, 1.0 - tau)
            new += np.multiply(source_param.data, tau, out=scratch[:new.size].reshape(shape))
            target_param.data = new

    if separate_calls:
        for pair in pairs:
            with engine.native_scope("soft_update"):
                _update([pair])
    else:
        with engine.native_scope("soft_update"):
            _update(pairs)
