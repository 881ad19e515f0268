"""Transparent event interception (Section 3.2 of the paper).

Three hook types correspond to the three interception mechanisms of the real
tool:

* :class:`BackendInterception` — Python <-> C interception around ML-backend
  calls (dynamically generated wrappers in the original; boundary listeners
  here).
* :class:`SimulatorInterception` — the same mechanism around simulator calls.
* :class:`CudaInterceptionHook` — the ``librlscope.so`` CUPTI-callback hook
  that records CUDA API calls.

Each hook records events into the owning profiler's trace and, because
book-keeping is not free, injects its own overhead into the virtual clock
while leaving an :class:`~repro.profiler.events.OverheadMarker` behind for
offline correction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..backend.engine import BackendEngine, BoundaryListener
from ..cuda.cupti import CuptiApiRecord
from .events import (
    CATEGORY_BACKEND,
    CATEGORY_SIMULATOR,
    OVERHEAD_CUDA_INTERCEPTION,
    OVERHEAD_CUPTI,
    OVERHEAD_PYPROF,
    Event,
    OverheadMarker,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .api import Profiler


class BackendInterception(BoundaryListener):
    """Records Backend events at the Python <-> ML-backend boundary."""

    category = CATEGORY_BACKEND

    def __init__(self, profiler: "Profiler") -> None:
        self.profiler = profiler
        self._span_starts: List[float] = []
        self._span_names: List[str] = []

    def _inject_overhead(self) -> None:
        profiler = self.profiler
        profiler.record_marker(OverheadMarker(
            kind=OVERHEAD_PYPROF,
            time_us=profiler.system.clock.now_us,
            worker=profiler.worker,
            phase=profiler.phase,
        ))
        profiler.system.clock.advance(profiler.system.cost_model.interception_overhead("pyprof"))

    def enter(self, engine: BackendEngine, call_name: str) -> None:
        # Wrapper book-keeping runs in Python before crossing into C.
        self._inject_overhead()
        self.profiler.on_c_enter()
        self._span_starts.append(self.profiler.system.clock.now_us)
        self._span_names.append(call_name)

    def exit(self, engine: BackendEngine, call_name: str) -> None:
        profiler = self.profiler
        end = profiler.system.clock.now_us
        start = self._span_starts.pop() if self._span_starts else end
        name = self._span_names.pop() if self._span_names else call_name
        profiler.record_event(Event(
            category=self.category, name=name,
            start_us=start, end_us=end,
            worker=profiler.worker, phase=profiler.phase,
        ))
        profiler.on_c_exit()
        # Wrapper book-keeping on the way back to Python.
        self._inject_overhead()


class SimulatorInterception(BackendInterception):
    """Records Simulator events at the Python <-> simulator boundary."""

    category = CATEGORY_SIMULATOR


class CudaInterceptionHook:
    """The ``librlscope.so`` hook: records CUDA API events via CUPTI callbacks.

    Each intercepted call becomes one CUDA-API event plus its interception
    marker and, while CUPTI is enabled, its CUPTI marker, written with one
    :meth:`~repro.profiler.events.EventTrace.add_api_call`.
    """

    _HOOK_ONLY = (OVERHEAD_CUDA_INTERCEPTION,)
    _WITH_CUPTI = (OVERHEAD_CUDA_INTERCEPTION, OVERHEAD_CUPTI)

    def __init__(self, profiler: "Profiler") -> None:
        self.profiler = profiler
        cost_model = profiler.system.cost_model
        self._draw = cost_model._jittered
        self._overhead_base_us = cost_model.interception_base_us("cuda")
        self._cupti = profiler.system.cuda.cupti

    def api_overhead_us(self, api_name: str) -> float:
        """Book-keeping time included inside the API call span."""
        del api_name  # overhead does not depend on which API was intercepted
        return self._draw(self._overhead_base_us)

    def on_api(self, record: CuptiApiRecord) -> None:
        api_name, start_us, end_us, worker, _ = record
        profiler = self.profiler
        if worker != profiler.worker:
            return
        profiler.trace.add_api_call(api_name, start_us, end_us, worker, profiler.phase,
                                    self._WITH_CUPTI if self._cupti.enabled else self._HOOK_ONLY)
