"""Tape-based reverse-mode automatic differentiation.

The tape records every primitive op applied to :class:`~repro.backend.tensor.Tensor`
values while it is active.  ``Tape.gradient`` walks the records in reverse,
computing vector-Jacobian products numerically and charging the backend
engine for the corresponding gradient ops (dispatch + kernels), inside a
single native call — matching how ``loss.backward()`` /
``GradientTape.gradient`` execute in the real backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .context import current_engine
from .ops import get_op
from .tensor import Tensor

_TAPE_STACK: List["Tape"] = []


def current_tape() -> Optional["Tape"]:
    """The innermost active tape, or None when no tape is recording."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@dataclass
class TapeEntry:
    """One recorded op application."""

    op_name: str
    inputs: List[Tensor]
    output: Tensor
    attrs: Mapping[str, object]


class Tape:
    """Records op applications for reverse-mode differentiation."""

    def __init__(self) -> None:
        self.entries: List[TapeEntry] = []
        self._watched: set[int] = set()
        self._produced: set[int] = set()

    # --------------------------------------------------------------- context
    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"

    # -------------------------------------------------------------- recording
    def watch(self, tensor: Tensor) -> None:
        """Force gradient tracking through ``tensor`` even if it does not require grad."""
        self._watched.add(tensor.id)

    def record(self, op_name: str, inputs: Sequence[Tensor], output: Tensor, attrs: Mapping[str, object]) -> None:
        self.entries.append(TapeEntry(op_name=op_name, inputs=list(inputs), output=output, attrs=attrs))
        self._produced.add(output.id)

    # --------------------------------------------------------------- backward
    def gradient(
        self,
        loss: Tensor,
        sources: Sequence[Tensor],
        *,
        call_name: str = "backward",
    ) -> List[np.ndarray]:
        """Gradients of ``loss`` with respect to each tensor in ``sources``.

        Tensors not on the path from sources to the loss get zero gradients.
        """
        engine = current_engine()
        grads: Dict[int, np.ndarray] = {loss.id: np.ones_like(loss.data)}
        with engine.native_scope(call_name):
            for entry in reversed(self.entries):
                out_grad = grads.get(entry.output.id)
                if out_grad is None:
                    continue
                opdef = get_op(entry.op_name)
                input_arrays = [t.data for t in entry.inputs]
                engine.account_gradient(opdef, input_arrays, entry.output.data, entry.attrs)
                input_grads = opdef.vjp(input_arrays, entry.output.data, out_grad, entry.attrs)
                for tensor, grad in zip(entry.inputs, input_grads):
                    if grad is None:
                        continue
                    grad = np.asarray(grad, dtype=np.float32)
                    if tensor.id in grads:
                        grads[tensor.id] = grads[tensor.id] + grad
                    else:
                        grads[tensor.id] = grad
        return [grads[src.id] if src.id in grads else np.zeros_like(src.data)
                for src in sources]


def apply_op(
    op_name: str,
    inputs: Sequence[Union[Tensor, np.ndarray, float]],
    attrs: Optional[Mapping[str, object]] = None,
    *,
    name: Optional[str] = None,
) -> Tensor:
    """Apply a primitive op to tensors under the current engine (and tape)."""
    engine = current_engine()
    attrs = dict(attrs or {})
    tensors = [value if isinstance(value, Tensor) else Tensor(value) for value in inputs]
    output_data = engine.apply(op_name, [t.data for t in tensors], attrs)
    differentiable = op_name != "stop_gradient"
    requires_grad = False
    if differentiable:
        for tensor in tensors:
            if tensor.requires_grad:
                requires_grad = True
                break
    output = Tensor(output_data, requires_grad=requires_grad, name=name)
    tape = current_tape()
    if tape is not None and differentiable:
        # Record whenever any input is tracked so chained expressions stay connected.
        watched, produced = tape._watched, tape._produced
        for tensor in tensors:
            if tensor.requires_grad or tensor.id in watched or tensor.id in produced:
                tape.record(op_name, tensors, output, attrs)
                break
    return output


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` (used in tests)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x.astype(np.float32))
        flat[i] = orig - eps
        lo = fn(x.astype(np.float32))
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad
