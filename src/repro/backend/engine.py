"""Backend engine base class: the Python <-> ML-backend boundary.

The engine is the piece of the stack that RL-Scope's "Backend" category
measures.  It owns

* the **native boundary** — every Python -> Backend call crosses it, costs
  marshalling time, and is observable by a :class:`BoundaryListener` (the
  profiler's transparent interception attaches here without the engine, or
  user code, changing);
* **operator execution** — each primitive op costs CPU dispatch time and
  launches its kernels through the simulated CUDA runtime, while the numpy
  forward computation produces the real numeric result.  An op's kernels
  depend only on its signature (op name, forward or gradient, output and
  input shapes), so each engine resolves a signature once into a
  :class:`~repro.cuda.runtime.LaunchPlan` and charges every later call of
  it from that plan;
* **compiled functions** — Graph / Autograph execution wraps a Python
  function so that repeated calls execute all ops inside a single native
  call (see :mod:`repro.backend.graph` and :mod:`repro.backend.autograph`).
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cuda.kernels import KernelSpec
from ..cuda.runtime import LaunchPlan
from ..system import System
from .ops import OpDef, get_op

_shape = attrgetter("shape")


class BoundaryListener:
    """Observer of Python <-> Backend boundary crossings (default: no-op)."""

    def enter(self, engine: "BackendEngine", call_name: str) -> None:  # pragma: no cover - trivial
        """Called when Python enters the backend's native code."""

    def exit(self, engine: "BackendEngine", call_name: str) -> None:  # pragma: no cover - trivial
        """Called when the backend's native code returns to Python."""


NULL_BOUNDARY = BoundaryListener()


class BackendEngine:
    """Base class for the Graph / Autograph / Eager execution engines."""

    #: execution-model identifier used for cost lookups ("graph", "autograph", "eager")
    kind: str = "base"
    #: whether each Python-level op call becomes its own native call
    wraps_each_op: bool = False
    #: whether Dense layers should use the fused ``addmm`` op (PyTorch style)
    fuses_linear: bool = False

    def __init__(self, system: System, *, flavor: str = "tensorflow", name: Optional[str] = None) -> None:
        self.system = system
        self.flavor = flavor
        self.name = name or f"{flavor}-{self.kind}"
        self.boundary: BoundaryListener = NULL_BOUNDARY
        self._native_depth = 0
        self._dispatch_inflation_stack: List[float] = []
        #: Launch plan per op signature ``(name, gradient?, output shape, input shapes)``.
        self._plans: Dict[Tuple[object, ...], LaunchPlan] = {}
        #: Base per-op dispatch cost, resolved on the first op.
        self._dispatch_base_us: Optional[float] = None
        # Counters used by tests and by the transitions-per-iteration analysis.
        self.native_call_count = 0
        self.op_count = 0
        self.kernel_launch_count = 0

    # ------------------------------------------------------------- boundary
    @property
    def in_native(self) -> bool:
        return self._native_depth > 0

    @contextmanager
    def native_scope(self, call_name: str) -> Iterator[None]:
        """Enter the backend for one Python -> Backend call.

        Nested scopes do not create new boundary crossings: only the
        outermost scope is a transition, as in the real stack where a
        ``session.run`` internally calling other backend code stays native.
        """
        outermost = self._native_depth == 0
        self._native_depth += 1
        if outermost:
            self.native_call_count += 1
            self.boundary.enter(self, call_name)
            self.system.clock.advance(self.system.cost_model.backend_call(self.flavor, self.kind))
        try:
            yield
        finally:
            self._native_depth -= 1
            if outermost:
                self.boundary.exit(self, call_name)

    @contextmanager
    def python_escape(self, reason: str = "py_function") -> Iterator[None]:
        """Temporarily return to Python from inside a native scope.

        Autograph's in-graph data-collection loop calls the simulator through
        an ``EagerPyFunc``-style bridge: the backend yields control back to
        Python (and from there to the simulator's C library).  The boundary
        listener sees a C -> Python return followed by a Python -> C entry,
        so profilers do not attribute simulator time to the backend.
        """
        if self._native_depth == 0:
            yield
            return
        saved_depth = self._native_depth
        self._native_depth = 0
        self.boundary.exit(self, reason)
        self._after_escape_to_python()
        try:
            yield
        finally:
            self._native_depth = saved_depth
            self.boundary.enter(self, f"{reason}_resume")
            self.system.clock.advance(self.system.cost_model.python_c_crossing())

    def _after_escape_to_python(self) -> None:
        """Hook invoked right after the backend yields control back to Python."""

    # ------------------------------------------------------------- dispatch
    @contextmanager
    def dispatch_inflation(self, factor: float) -> Iterator[None]:
        """Scale per-op dispatch cost inside the block (Autograph anomaly, F.6)."""
        self._dispatch_inflation_stack.append(factor)
        try:
            yield
        finally:
            self._dispatch_inflation_stack.pop()

    def _plan(self, opdef: OpDef, gradient: bool, inputs: Sequence[np.ndarray],
              output: np.ndarray, attrs: Mapping[str, object]) -> LaunchPlan:
        """The launch plan of ``opdef`` (or of its gradient op) on these shapes."""
        key = (opdef.name, gradient, output.shape, tuple(map(_shape, inputs)))
        plan = self._plans.get(key)
        if plan is None:
            kernels = opdef.backward_kernels if gradient else opdef.kernels
            plan = self._plans[key] = self.system.cuda.plan(kernels(inputs, output, attrs))
        return plan

    def _account(self, plan: LaunchPlan) -> None:
        """Charge dispatch CPU time and launch the op's kernels."""
        self.op_count += 1
        system = self.system
        cost_model = system.cost_model
        base_us = self._dispatch_base_us
        if base_us is None:
            base_us = self._dispatch_base_us = cost_model.backend_op_dispatch_base_us(
                self.flavor, self.kind)
        dispatch = cost_model._jittered(base_us)
        inflation = self._dispatch_inflation_stack
        if inflation and inflation[-1] != 1.0:
            dispatch *= inflation[-1]
        system.clock.advance(dispatch)
        system.cuda.launch_plan(plan)
        self.kernel_launch_count += len(plan.kernels)

    def execute_op(self, op_name: str, inputs: Sequence[np.ndarray], attrs: Mapping[str, object]) -> np.ndarray:
        """Run one primitive op: numeric forward plus cost accounting."""
        opdef = get_op(op_name)
        output = opdef.forward(inputs, attrs)
        output = np.asarray(output, dtype=np.float32)
        self._account(self._plan(opdef, False, inputs, output, attrs))
        return output

    def account_gradient(self, opdef: OpDef, inputs: Sequence[np.ndarray], output: np.ndarray,
                         attrs: Mapping[str, object]) -> None:
        """Account for ``opdef``'s gradient op (the tape computes the VJP itself)."""
        self._account(self._plan(opdef, True, inputs, output, attrs))

    def account_op(self, op_name: str, kernels: Sequence[KernelSpec]) -> None:
        """Account for an op whose numeric result is computed elsewhere.

        Used for fused optimizer updates and target-network updates.
        """
        del op_name  # the name is informational; cost depends only on the kernels
        self._account(self.system.cuda.plan(kernels))

    # ------------------------------------------------------------ op routing
    def apply(self, op_name: str, inputs: Sequence[np.ndarray], attrs: Mapping[str, object]) -> np.ndarray:
        """Execute an op issued from Python-level code.

        Eager engines wrap each top-level op in its own native call;
        graph-style engines only execute ops inside an enclosing native scope
        (a ``session.run`` / compiled function call), and fall back to a
        one-op native call when an op is issued at the top level.
        """
        if self._native_depth == 0:
            with self.native_scope(op_name):
                return self.execute_op(op_name, inputs, attrs)
        return self.execute_op(op_name, inputs, attrs)

    # -------------------------------------------------------------- memcpys
    def copy_to_device(self, num_bytes: float) -> None:
        """Host -> device transfer issued by backend code (inside native scope)."""
        self.system.cuda.memcpy_async("HtoD", num_bytes)

    def copy_to_host(self, num_bytes: float, *, synchronize: bool = True) -> None:
        """Device -> host transfer; synchronous by default (the caller needs the data)."""
        self.system.cuda.memcpy_async("DtoH", num_bytes)
        if synchronize:
            self.system.cuda.stream_synchronize()

    # ------------------------------------------------------------- compiled
    def function(self, fn, *, name: str = "fn", **kwargs) -> "CompiledFunction":
        """Wrap ``fn`` for repeated execution under this engine.

        The base implementation (used by eager engines) simply calls the
        function — every op inside dispatches eagerly.
        """
        del kwargs
        return CompiledFunction(self, fn, name=name, prologue_python_units=0.0, dispatch_inflation=1.0,
                                wrap_native=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(flavor={self.flavor!r}, name={self.name!r})"


class CompiledFunction:
    """A Python function bound to an engine-specific execution strategy.

    ``prologue_python_units`` models the Python-side cost of preparing a call
    (feed-dict construction for Graph, ``tf.nest`` flattening and signature
    checks for Autograph).  ``dispatch_inflation`` scales per-op dispatch cost
    inside the call (the Autograph inference anomaly, finding F.6).  When
    ``wrap_native`` is true the whole body runs inside one native call.
    """

    def __init__(
        self,
        engine: BackendEngine,
        fn,
        *,
        name: str,
        prologue_python_units: float,
        dispatch_inflation: float,
        wrap_native: bool,
    ) -> None:
        self.engine = engine
        self.fn = fn
        self.name = name
        self.prologue_python_units = prologue_python_units
        self.dispatch_inflation = dispatch_inflation
        self.wrap_native = wrap_native
        self.call_count = 0

    def __call__(self, *args, **kwargs):
        self.call_count += 1
        if self.prologue_python_units > 0:
            self.engine.system.cpu_work(self.prologue_python_units)
        if not self.wrap_native:
            return self.fn(*args, **kwargs)
        notify_entry = getattr(self.engine, "note_function_entry", None)
        if notify_entry is not None and not self.engine.in_native:
            notify_entry()
        with self.engine.native_scope(self.name):
            with self.engine.dispatch_inflation(self.dispatch_inflation):
                return self.fn(*args, **kwargs)
