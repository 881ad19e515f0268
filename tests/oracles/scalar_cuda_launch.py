"""The scalar CUDA launch path: one draw, one call and one object at a time.

This is the simulated CUDA path as it was before it was batched:

* :class:`ScalarCostModel` draws each jitter factor with its own scalar
  ``Generator.normal(0.0, jitter)`` call;
* :class:`ScalarCudaRuntime` launches an op's kernels one
  ``launch_kernel`` call at a time;
* :class:`ObjectProfiler` (with :class:`ObjectInterceptionHook`) builds
  every CUDA API event, overhead marker and GPU event as an
  :class:`~repro.profiler.events.Event` / ``OverheadMarker`` object and
  writes it into the profiler's sink as one row at a time, instead of the
  fused :meth:`~repro.tracedb.writer.ShardWriter.add_api_call` and
  :meth:`~repro.tracedb.writer.ShardWriter.add_events`.

Build a worker with :func:`scalar_system` instead of ``System.create`` and
profile it with :class:`ObjectProfiler` instead of ``Profiler``: clocks,
CUDA API counts, CUPTI records, device activity and trace records must all
match the shipped path bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cuda.cupti import Cupti, CuptiApiRecord
from repro.cuda.kernels import KernelSpec
from repro.cuda.runtime import ApiCallResult, CudaRuntime
from repro.hw.clock import VirtualClock
from repro.hw.costmodel import CostModel, CostModelConfig
from repro.hw.gpu import GPUDevice
from repro.profiler.api import Profiler
from repro.profiler.events import (
    CATEGORY_CUDA_API,
    CATEGORY_GPU,
    OVERHEAD_CUDA_INTERCEPTION,
    OVERHEAD_CUPTI,
    Event,
    OverheadMarker,
)
from repro.profiler.interception import CudaInterceptionHook
from repro.system import System
from repro.tracedb.format import interval_row, marker_row


class ScalarCostModel(CostModel):
    """A cost model drawing one scalar normal per jittered duration."""

    def _jittered(self, base_us: float) -> float:
        if base_us <= 0:
            return 0.0
        if self.config.jitter <= 0:
            return float(base_us)
        factor = 1.0 + self._rng.normal(0.0, self.config.jitter)
        return float(base_us * max(factor, 0.05))


class ScalarCudaRuntime(CudaRuntime):
    """A CUDA runtime launching each kernel with its own call."""

    def _api_call(self, api_name: str) -> CuptiApiRecord:
        self.api_call_counts[api_name] += 1
        duration = self.cost_model.cuda_api(api_name)
        if self.cupti.enabled:
            duration += self.cost_model.cupti_inflation(api_name)
        for hook in self._hooks:
            duration += hook.api_overhead_us(api_name)
        start = self.clock.now_us
        self.clock.advance(duration)
        end = self.clock.now_us
        record = self.cupti.record_api(api_name, start, end, self.worker)
        for hook in self._hooks:
            hook.on_api(record)
        return record

    def launch_kernel(self, kernel: KernelSpec, *, stream: Optional[int] = None) -> ApiCallResult:
        if stream is None:
            stream = self.default_stream
        record = self._api_call("cudaLaunchKernel")
        self.kernel_launch_count += 1
        activity = self.device.launch_kernel(
            kernel.name,
            flops=kernel.flops,
            bytes_accessed=kernel.bytes_accessed,
            launch_complete_us=record.end_us,
            stream=stream,
            worker=self.worker,
            duration_us=self.cost_model.kernel_duration(kernel.flops, kernel.bytes_accessed),
        )
        self.cupti.record_kernel(activity, record.correlation_id)
        return ApiCallResult(record=record, activity=activity)

    def launch_kernels(self, kernels: Sequence[KernelSpec], *,
                       stream: Optional[int] = None) -> List[ApiCallResult]:
        """The per-op loop ``BackendEngine._account`` used to run."""
        return [self.launch_kernel(kernel, stream=stream) for kernel in kernels]


def scalar_system(*, seed: int = 0, config: Optional[CostModelConfig] = None,
                  device: Optional[GPUDevice] = None, cupti: Optional[Cupti] = None,
                  worker: str = "worker_0") -> System:
    """``System.create`` wired with the scalar cost model and runtime."""
    cost_model = ScalarCostModel(config, seed=seed)
    clock = VirtualClock()
    if device is None:
        device = GPUDevice(cost_model=cost_model)
    cuda = ScalarCudaRuntime(clock, cost_model, device, worker=worker, cupti=cupti)
    return System(clock=clock, cost_model=cost_model, device=device, cuda=cuda, worker=worker)


class ObjectInterceptionHook(CudaInterceptionHook):
    """The CUDA interception hook recording one object per event and marker."""

    def on_api(self, record: CuptiApiRecord) -> None:
        profiler = self.profiler
        if record.worker != profiler.worker:
            return
        sink = profiler.sink
        sink.add_event(interval_row(Event(
            category=CATEGORY_CUDA_API, name=record.api_name,
            start_us=record.start_us, end_us=record.end_us,
            worker=profiler.worker, phase=profiler.phase,
        )))
        sink.add_marker(marker_row(OverheadMarker(
            kind=OVERHEAD_CUDA_INTERCEPTION, time_us=record.end_us,
            api_name=record.api_name, worker=profiler.worker, phase=profiler.phase,
        )))
        if profiler.system.cuda.cupti.enabled:
            sink.add_marker(marker_row(OverheadMarker(
                kind=OVERHEAD_CUPTI, time_us=record.end_us,
                api_name=record.api_name, worker=profiler.worker, phase=profiler.phase,
            )))


class ObjectProfiler(Profiler):
    """A profiler whose CUDA hook and GPU activity write one object per record."""

    def attach(self, **kwargs) -> "ObjectProfiler":
        super().attach(**kwargs)
        if self._cuda_hook is not None:
            self.system.cuda.remove_hook(self._cuda_hook)
            self._cuda_hook = ObjectInterceptionHook(self)
            self.system.cuda.add_hook(self._cuda_hook)
        return self

    def _record_gpu_activity(self) -> None:
        cupti = self.system.cuda.cupti
        for record in cupti.kernel_records:
            if record.worker != self.worker:
                continue
            self.sink.add_event(interval_row(Event(
                category=CATEGORY_GPU, name=record.kernel_name,
                start_us=record.start_us, end_us=record.end_us,
                worker=self.worker, phase=self.phase,
            )))
        for record in cupti.memcpy_records:
            if record.worker != self.worker:
                continue
            self.sink.add_event(interval_row(Event(
                category=CATEGORY_GPU, name=f"memcpy_{record.direction}",
                start_us=record.start_us, end_us=record.end_us,
                worker=self.worker, phase=self.phase,
            )))
