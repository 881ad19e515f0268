"""The per-parameter Adam update, kept as a test oracle.

:class:`repro.backend.optimizers.Adam` and ``MPIAdam`` keep both moments in
one float32 vector per optimizer and update every parameter in one fused
pass.  The original optimizers, which updated one parameter at a time with
``_adam_update`` and per-parameter moment dicts, are kept here unchanged as
:class:`LoopAdam` and :class:`LoopMPIAdam`.  Driven with the same gradients,
the shipped optimizers must leave every parameter bit-identical and the
virtual clock at the same time (``tests/test_adam_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.backend.context import current_engine
from repro.backend.optimizers import Optimizer
from repro.backend.tensor import Parameter
from repro.cuda.kernels import optimizer_kernel, tensor_bytes


class LoopAdam(Optimizer):
    """The original per-parameter Adam."""

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
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _adam_update(self, param: Parameter, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        m = self._m.setdefault(param.id, np.zeros_like(param.data))
        v = self._v.setdefault(param.id, np.zeros_like(param.data))
        m[...] = self.beta1 * m + (1.0 - self.beta1) * grad
        v[...] = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self.step_count)
        v_hat = v / (1.0 - self.beta2 ** self.step_count)
        param.assign(param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check_grads(grads)
        engine = current_engine()
        self.step_count += 1
        with engine.native_scope("adam_step"):
            for param, grad in zip(self.params, grads):
                engine.account_op("adam_update", param.shape,
                                  lambda: [optimizer_kernel(param.size, name="adam_update")])
                self._adam_update(param, grad)


class LoopMPIAdam(LoopAdam):
    """The original MPIAdam: the per-parameter update after the host copy."""

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
        for param, grad in zip(self.params, grads):
            self._adam_update(param, grad)

        # (3) Push the updated flat parameter vector back to the device and
        #     scatter it into each variable.
        del total_bytes
        with engine.native_scope("mpi_adam_set_from_flat"):
            for param in self.params:
                engine.copy_to_device(float(tensor_bytes(param.shape)))
                engine.account_op("assign", param.shape,
                                  lambda: [optimizer_kernel(param.size, name="assign_flat")])
