"""RL framework adapters: the <execution model, ML backend> combinations of Table 1.

The paper compares four RL frameworks that implement the *same* algorithms
with the same hyperparameters but different execution models and backends:

===================  ================  ===========
RL framework         Execution model   ML backend
===================  ================  ===========
stable-baselines     Graph             TensorFlow
tf-agents            Autograph         TensorFlow
tf-agents            Eager             TensorFlow
ReAgent              Eager             PyTorch
===================  ================  ===========

A :class:`FrameworkAdapter` binds an algorithm implementation to one of these
combinations: it owns the backend engine, decides how inference / update
functions are compiled, how the environment is called from inside compiled
code, which optimizer implementation is used (stable-baselines' DDPG uses the
MPI-friendly CPU Adam of finding F.4), and whether target-network updates are
bundled or issued as separate backend calls.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..backend.autograph import AutographEngine
from ..backend.eager import EagerEngine, PyTorchEagerEngine
from ..backend.engine import BackendEngine
from ..backend.graph import GraphEngine
from ..backend.optimizers import Adam, MPIAdam, Optimizer
from ..backend.tensor import Parameter
from ..system import System

EXECUTION_GRAPH = "graph"
EXECUTION_AUTOGRAPH = "autograph"
EXECUTION_EAGER = "eager"

BACKEND_TENSORFLOW = "tensorflow"
BACKEND_PYTORCH = "pytorch"


@dataclass(frozen=True)
class FrameworkSpec:
    """One row of Table 1."""

    framework: str
    execution_model: str
    backend: str

    @property
    def label(self) -> str:
        return f"{self.backend.capitalize()} {self.execution_model.capitalize()}"

    @property
    def key(self) -> str:
        return f"{self.framework}:{self.execution_model}:{self.backend}"


STABLE_BASELINES = FrameworkSpec("stable-baselines", EXECUTION_GRAPH, BACKEND_TENSORFLOW)
TF_AGENTS_AUTOGRAPH = FrameworkSpec("tf-agents", EXECUTION_AUTOGRAPH, BACKEND_TENSORFLOW)
TF_AGENTS_EAGER = FrameworkSpec("tf-agents", EXECUTION_EAGER, BACKEND_TENSORFLOW)
REAGENT = FrameworkSpec("ReAgent", EXECUTION_EAGER, BACKEND_PYTORCH)

#: The framework matrix of Table 1, in the order the paper's figures use.
TABLE1: List[FrameworkSpec] = [REAGENT, TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER, STABLE_BASELINES]


def make_engine(system: System, spec: FrameworkSpec) -> BackendEngine:
    """Instantiate the backend engine for a framework configuration."""
    if spec.execution_model == EXECUTION_GRAPH:
        return GraphEngine(system, flavor=spec.backend)
    if spec.execution_model == EXECUTION_AUTOGRAPH:
        return AutographEngine(system, flavor=spec.backend)
    if spec.execution_model == EXECUTION_EAGER:
        if spec.backend == BACKEND_PYTORCH:
            return PyTorchEagerEngine(system)
        return EagerEngine(system, flavor=spec.backend)
    raise ValueError(f"unknown execution model {spec.execution_model!r}")


def _weak_owner(fn: Callable) -> Callable:
    """``fn``, holding its instance weakly when it is a bound method.

    Algorithms keep their compiled functions as attributes of themselves.  A
    strong reference back to the algorithm would make each one a reference
    cycle, freed only by a full garbage collection, together with its
    networks, optimizer state and the system's CUDA activity records.
    """
    if not inspect.ismethod(fn):
        return fn
    method = weakref.WeakMethod(fn)

    def call(*args, **kwargs):
        return method()(*args, **kwargs)
    return call


class FrameworkAdapter:
    """Binds algorithm code to a framework configuration."""

    def __init__(self, system: System, spec: FrameworkSpec = STABLE_BASELINES) -> None:
        self.system = system
        self.spec = spec
        self.engine = make_engine(system, spec)

    # ------------------------------------------------------------ compilation
    def compile(self, fn: Callable, *, kind: str, name: str, num_feeds: int = 4) -> Callable:
        """Wrap ``fn`` according to the framework's execution model.

        ``kind`` is ``"inference"`` or ``"update"``; Autograph inference
        functions carry the dispatch-inflation anomaly of finding F.6.
        """
        engine = self.engine
        fn = _weak_owner(fn)
        if isinstance(engine, GraphEngine):
            return engine.function(fn, name=name, num_feeds=num_feeds)
        if isinstance(engine, AutographEngine):
            return engine.function(fn, name=name, inflate_dispatch=(kind == "inference"))
        return fn

    def compile_collect(self, fn: Callable, *, name: str = "collect_driver") -> Callable:
        """Wrap a data-collection loop.

        tf-agents' Autograph driver runs the entire loop in-graph (one
        backend transition per ``train_freq`` simulator steps); every other
        framework collects data with a plain Python loop.
        """
        engine = self.engine
        fn = _weak_owner(fn)
        if isinstance(engine, AutographEngine):
            return engine.function(fn, name=name, inflate_dispatch=False)
        return fn

    def env_call(self, fn: Callable, *args, **kwargs):
        """Call a simulator method, escaping compiled code if necessary."""
        engine = self.engine
        if isinstance(engine, AutographEngine) and engine.in_native:
            return engine.py_function(fn, *args, **kwargs)
        return fn(*args, **kwargs)

    # -------------------------------------------------------------- policies
    def make_optimizer(self, params: Sequence[Parameter], lr: float, *, algo: str) -> Optimizer:
        """Create the optimizer this framework's implementation of ``algo`` uses."""
        if self.uses_mpi_adam(algo):
            return MPIAdam(params, lr=lr)
        return Adam(params, lr=lr)

    def uses_mpi_adam(self, algo: str) -> bool:
        """stable-baselines' DDPG uses the MPI-friendly CPU Adam (finding F.4)."""
        return self.spec.framework == "stable-baselines" and algo.upper() == "DDPG"

    def separate_target_update_calls(self, algo: str) -> bool:
        """stable-baselines' DDPG issues target updates as separate backend calls (F.4)."""
        return self.spec.framework == "stable-baselines" and algo.upper() == "DDPG"

    @property
    def label(self) -> str:
        return self.spec.label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrameworkAdapter({self.spec.key})"


def default_framework(system: System) -> FrameworkAdapter:
    """The framework used for the algorithm/simulator surveys (stable-baselines, TF Graph)."""
    return FrameworkAdapter(system, STABLE_BASELINES)
