"""Optimizers for the miniature backend.

Two implementations of Adam matter for the paper:

* :class:`Adam` — the "fused" GPU implementation every modern backend
  provides: one update kernel per parameter tensor, applied inside a single
  backend call.  The host-side arithmetic is fused as well: one pass over
  flat moment vectors updates every parameter at once.
* :class:`MPIAdam` — stable-baselines' MPI-friendly Adam, which flattens the
  gradients, copies them to the host, performs the Adam update in Python, and
  writes the result back to the device.  During single-node training this is
  pure overhead: extra CUDA memcpys, extra backend calls and extra Python
  time — the root cause of the 3.7x backpropagation inflation in DDPG Graph
  (finding F.4).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..cuda.kernels import optimizer_kernel, tensor_bytes
from .context import current_engine
from .tensor import Parameter


class Optimizer:
    """Base class: holds the parameter list and per-parameter state."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        self.lr = float(lr)
        self.step_count = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        raise NotImplementedError

    def _check_grads(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        for param, grad in zip(self.params, grads):
            if np.asarray(grad).shape != param.shape:
                raise ValueError(f"gradient shape {np.asarray(grad).shape} != parameter shape {param.shape}")


class Adam(Optimizer):
    """Fused Adam: one device kernel per parameter tensor, one backend call.

    The host arithmetic is fused too: the first and second moments, the
    gathered gradients and a scratch buffer are one contiguous float32
    vector each, over all the optimizer's parameters.  A step gathers the
    gradients once, updates both moments in place and computes the new
    parameter vector in one pass; each :class:`Parameter` is then rebound to
    its slice of that fresh vector, so no array a caller holds is mutated.
    The parameter values are gathered only when some parameter is no longer
    bound to the previous step's slice.  The updates are elementwise, so
    every value is bit-identical to updating one parameter at a time (the
    per-parameter loop is the test oracle ``tests/oracles/adam_loop.py``).
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._offsets = np.cumsum([0] + [p.size for p in self.params]).tolist()
        size = self._offsets[-1]
        self._m = np.zeros(size, dtype=np.float32)
        self._v = np.zeros(size, dtype=np.float32)
        self._grad = np.empty(size, dtype=np.float32)
        self._scratch = np.empty(size, dtype=np.float32)
        #: The parameter vector of the last step and the views handed out.
        self._flat = np.empty(0, dtype=np.float32)
        self._views: List[np.ndarray] = []

    def _fused_update(self, grads: Sequence[np.ndarray]) -> None:
        """One Adam step over every parameter (``step_count`` already advanced).

        The same float32 operations, in the same order, as updating each
        parameter on its own: ``m = beta1 * m + (1 - beta1) * g``,
        ``v = beta2 * v + (1 - beta2) * g * g``, then
        ``p - lr * m_hat / (sqrt(v_hat) + eps)``.
        """
        if not self.params:
            return
        g, tmp, m, v = self._grad, self._scratch, self._m, self._v
        np.concatenate([np.asarray(grad, dtype=np.float32).reshape(-1) for grad in grads],
                       out=g)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1.0 - self.beta2 ** self.step_count, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step = np.divide(m, 1.0 - self.beta1 ** self.step_count, out=g)
        step *= self.lr
        step /= tmp
        # Parameters still bound to the last step's views need no gather.
        flat = self._flat
        if len(self._views) != len(self.params) or any(
                param.data is not view for param, view in zip(self.params, self._views)):
            flat = np.concatenate([param.data.reshape(-1) for param in self.params])
        self._flat = new = np.subtract(flat, step)
        self._views = [new[lo:hi].reshape(param.shape) for param, lo, hi
                       in zip(self.params, self._offsets, self._offsets[1:])]
        for param, view in zip(self.params, self._views):
            param.data = view

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check_grads(grads)
        engine = current_engine()
        self.step_count += 1
        with engine.native_scope("adam_step"):
            for param in self.params:
                engine.account_op("adam_update", param.shape,
                                  lambda: [optimizer_kernel(param.size, name="adam_update")])
            self._fused_update(grads)


class MPIAdam(Adam):
    """stable-baselines' MPI-friendly Adam (GPU-unfriendly; see finding F.4).

    Per step it issues:

    1. a ``get_flat``-style backend call that copies the flattened gradients
       (and parameters) from device to host,
    2. the Adam moment update in interpreted Python on the host, and
    3. a ``set_from_flat`` backend call that copies the updated parameters
       back to the device and scatters them into the individual variables.
    """

    #: python units of work per 1000 scalar parameters for the host-side update
    PYTHON_UNITS_PER_KPARAM = 14.0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check_grads(grads)
        engine = current_engine()
        system = engine.system
        self.step_count += 1
        total_bytes = float(sum(tensor_bytes(p.shape) for p in self.params))

        # (1) Fetch flat gradients + parameters to the host, one transfer per
        #     variable (get_flat gathers each variable separately).
        with engine.native_scope("mpi_adam_get_flat"):
            for param in self.params:
                # Flatten/gather each variable into the flat vector, then copy
                # its gradient and value to the host.
                engine.account_op("flatten_var", param.shape,
                                  lambda: [optimizer_kernel(param.size, name="flatten_var")])
                engine.copy_to_host(float(tensor_bytes(param.shape)), synchronize=False)  # gradient
                engine.copy_to_host(float(tensor_bytes(param.shape)))                     # value
        for param in self.params:
            param.host_copy = param.data.copy()

        # (2) Host-side Adam update in Python.
        total_params = sum(p.size for p in self.params)
        system.cpu_work(self.PYTHON_UNITS_PER_KPARAM * total_params / 1000.0)
        self._fused_update(grads)

        # (3) Push the updated flat parameter vector back to the device and
        #     scatter it into each variable.
        del total_bytes
        with engine.native_scope("mpi_adam_set_from_flat"):
            for param in self.params:
                engine.copy_to_device(float(tensor_bytes(param.shape)))
                engine.account_op("assign", param.shape,
                                  lambda: [optimizer_kernel(param.size, name="assign_flat")])
