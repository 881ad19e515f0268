"""Tensors and parameters for the miniature ML backend.

A :class:`Tensor` wraps a float32 numpy array plus the bookkeeping needed by
the tape-based autodiff in :mod:`repro.backend.autodiff`.  A
:class:`Parameter` is a trainable tensor owned by a layer; it additionally
tracks a (virtual) device-resident copy so that optimizers that shuttle
weights between host and device (the MPI-friendly Adam of finding F.4) have
something to copy.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

_tensor_ids = itertools.count()


def as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float32 numpy array (Tensors pass their data through)."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float32)


class Tensor:
    """A float32 array with an identity usable as an autodiff graph node."""

    __slots__ = ("data", "requires_grad", "name", "id")

    def __init__(self, data: ArrayLike, *, requires_grad: bool = False, name: Optional[str] = None) -> None:
        # as_array already yields a float32 ndarray; re-coercing it walked
        # every tensor's data a second time on the engine hot path.
        self.data = as_array(data)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.id = next(_tensor_ids)

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data.item())

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"tensor_{self.id}"
        return f"Tensor({label}, shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor.

    Parameters live on the (virtual) GPU; ``host_copy`` holds the most recent
    host-side snapshot made by optimizers that update weights on the CPU.
    """

    __slots__ = ("host_copy",)

    def __init__(self, data: ArrayLike, *, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.host_copy: Optional[np.ndarray] = None

    def assign(self, value: ArrayLike) -> None:
        """Rebind the parameter to a float32 copy of ``value`` (same shape).

        The previous array is not written to, and later writes to ``value``
        do not reach the parameter.
        """
        new = as_array(value)
        if new.shape != self.data.shape:
            raise ValueError(f"cannot assign shape {new.shape} to parameter of shape {self.data.shape}")
        self.data = new.astype(np.float32)


def parameter_count(params: Iterable[Parameter]) -> int:
    """Total number of scalar parameters."""
    return sum(p.size for p in params)


def flatten_params(params: Iterable[Parameter]) -> np.ndarray:
    """Concatenate parameter values into one flat vector (for tests/checkpoints)."""
    arrays = [p.data.reshape(-1) for p in params]
    if not arrays:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(arrays)


def assign_flat_params(params: Sequence[Parameter], flat: np.ndarray) -> None:
    """Inverse of :func:`flatten_params`."""
    offset = 0
    for p in params:
        n = p.size
        p.assign(flat[offset:offset + n].reshape(p.shape))
        offset += n
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries but parameters need {offset}")
