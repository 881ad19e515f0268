"""Miniature ML backend: tensors, ops, autodiff, engines, layers, optimizers.

This package plays the role of TensorFlow / PyTorch in the reproduction: it
executes real numpy computations while charging the virtual clock for backend
dispatch, CUDA API calls and GPU kernels, and it exposes the Graph /
Autograph / Eager execution models whose differences drive the paper's
framework study (Section 4.1).
"""

from . import functional
from .autodiff import Tape, apply_op, current_tape, numeric_gradient
from .autograph import AutographEngine
from .context import clear_engines, current_engine, maybe_current_engine, set_default_engine, use_engine
from .eager import EagerEngine, PyTorchEagerEngine
from .engine import BackendEngine, BoundaryListener, CompiledFunction, NULL_BOUNDARY
from .graph import GraphEngine, GraphInfo
from .layers import MLP, Dense, Module, hard_update, soft_update
from .ops import OPS, OpDef, get_op
from .optimizers import Adam, MPIAdam, Optimizer
from .tensor import Parameter, Tensor, assign_flat_params, flatten_params, parameter_count

__all__ = [
    "functional",
    "Tape",
    "apply_op",
    "current_tape",
    "numeric_gradient",
    "AutographEngine",
    "clear_engines",
    "current_engine",
    "maybe_current_engine",
    "set_default_engine",
    "use_engine",
    "EagerEngine",
    "PyTorchEagerEngine",
    "BackendEngine",
    "BoundaryListener",
    "CompiledFunction",
    "NULL_BOUNDARY",
    "GraphEngine",
    "GraphInfo",
    "MLP",
    "Dense",
    "Module",
    "hard_update",
    "soft_update",
    "OPS",
    "OpDef",
    "get_op",
    "Adam",
    "MPIAdam",
    "Optimizer",
    "Parameter",
    "Tensor",
    "assign_flat_params",
    "flatten_params",
    "parameter_count",
]
