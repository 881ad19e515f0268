"""Simulated CUPTI: the CUDA Profiling Tools Interface.

The real CUPTI library records *activity records* for CUDA API calls, kernel
executions and memory copies, and — important for RL-Scope's calibration —
its closed-source hooks inflate the CPU-side duration of each CUDA API call
by an amount that depends on the API (Appendix C.2 of the paper).

This module reproduces both behaviours.  The inflation amounts come from the
cost model but are *not* visible to the profiler: RL-Scope has to recover
them through difference-of-average calibration.

Activity records are named field rows (:class:`~typing.NamedTuple`), built
once per API call or kernel on the launch path and read by field name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

from ..hw.gpu import GPUActivity


class CuptiApiRecord(NamedTuple):
    """Activity record for one CUDA API call (CPU side)."""

    api_name: str
    start_us: float
    end_us: float
    worker: str
    correlation_id: int

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


class CuptiKernelRecord(NamedTuple):
    """Activity record for one kernel execution (device side)."""

    kernel_name: str
    start_us: float
    end_us: float
    stream: int
    worker: str
    correlation_id: int

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


class CuptiMemcpyRecord(NamedTuple):
    """Activity record for one memory copy (device side)."""

    direction: str
    start_us: float
    end_us: float
    stream: int
    worker: str
    correlation_id: int

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


_tuple_new = tuple.__new__

ApiCallback = Callable[[CuptiApiRecord], None]
ActivityCallback = Callable[[object], None]


@dataclass
class Cupti:
    """Activity-record collector attached to a :class:`~repro.cuda.runtime.CudaRuntime`."""

    enabled: bool = False
    api_records: List[CuptiApiRecord] = field(default_factory=list)
    kernel_records: List[CuptiKernelRecord] = field(default_factory=list)
    memcpy_records: List[CuptiMemcpyRecord] = field(default_factory=list)
    _api_callbacks: List[ApiCallback] = field(default_factory=list)
    _next_correlation_id: int = 1

    # ----------------------------------------------------------------- state
    def enable(self) -> None:
        """Enable activity collection (and, implicitly, CUPTI's CPU inflation)."""
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.api_records.clear()
        self.kernel_records.clear()
        self.memcpy_records.clear()
        self._next_correlation_id = 1

    def subscribe_api(self, callback: ApiCallback) -> None:
        """Register a callback invoked for every API record while enabled."""
        self._api_callbacks.append(callback)

    # --------------------------------------------------------------- records
    def record_api(self, api_name: str, start_us: float, end_us: float, worker: str,
                   correlation_id: Optional[int] = None) -> CuptiApiRecord:
        if correlation_id is None:
            correlation_id = self._next_correlation_id
            self._next_correlation_id = correlation_id + 1
        # ``tuple.__new__`` skips the generated ``__new__``'s Python frame.
        record = _tuple_new(CuptiApiRecord, (api_name, start_us, end_us, worker, correlation_id))
        if self.enabled:
            self.api_records.append(record)
            for callback in self._api_callbacks:
                callback(record)
        return record

    def record_kernel(self, activity: GPUActivity, correlation_id: int) -> Optional[CuptiKernelRecord]:
        if not self.enabled:
            return None
        _, name, start_us, end_us, stream, worker = activity
        record = _tuple_new(CuptiKernelRecord,
                            (name, start_us, end_us, stream, worker, correlation_id))
        self.kernel_records.append(record)
        return record

    def record_memcpy(self, activity: GPUActivity, correlation_id: int) -> Optional[CuptiMemcpyRecord]:
        if not self.enabled:
            return None
        record = CuptiMemcpyRecord(activity.name, activity.start_us, activity.end_us,
                                   activity.stream, activity.worker, correlation_id)
        self.memcpy_records.append(record)
        return record
