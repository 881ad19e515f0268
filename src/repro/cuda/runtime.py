"""Simulated CUDA runtime API.

The miniature ML backend and the AirLearning renderer call this runtime the
way TensorFlow / PyTorch call ``libcudart``: every call costs CPU time (the
"CUDA API" category in RL-Scope's breakdown), optionally inflated by CUPTI
when activity collection is enabled, and asynchronously enqueues device work
on the shared :class:`~repro.hw.gpu.GPUDevice`.

External profilers attach through two mechanisms, mirroring the real stack:

* :meth:`CudaRuntime.add_hook` — the ``librlscope.so``-style interception
  hook.  Its book-keeping time is *included in the API call span* (as it is
  in the real tool, where the hook runs inside the CUPTI callback) and it is
  notified with the completed API record.
* :class:`~repro.cuda.cupti.Cupti` activity records — enabled separately,
  and adding its own closed-source inflation to each API call.

A backend op launches all of its kernels with one
:meth:`CudaRuntime.launch_kernels` call (:meth:`CudaRuntime.launch_kernel`
is its one-kernel case).  Each kernel is still its own ``cudaLaunchKernel``
API call, accounted in this order: the ``cuda_api`` draw, the CUPTI
inflation draw (when CUPTI is enabled), each hook's overhead draw, the clock
advance over the call, ``Cupti.record_api``, each hook's ``on_api``, the
``kernel_duration`` draw, the device enqueue and ``Cupti.record_kernel``.
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Optional, Protocol, Sequence, Tuple

from ..hw.clock import VirtualClock
from ..hw.costmodel import CostModel
from ..hw.gpu import COPY_STREAM, DEFAULT_STREAM, GPUActivity, GPUDevice
from .cupti import Cupti, CuptiApiRecord
from .kernels import KernelSpec


class CudaApiHook(Protocol):
    """Interface for interception hooks (RL-Scope's ``librlscope.so``)."""

    def api_overhead_us(self, api_name: str) -> float:
        """Book-keeping CPU time to include inside the API call span."""

    def on_api(self, record: CuptiApiRecord) -> None:
        """Notification after the API call completes (no time cost)."""


class ApiCallResult(NamedTuple):
    """Outcome of one simulated CUDA API call."""

    record: CuptiApiRecord
    activity: Optional[GPUActivity] = None


class CudaRuntime:
    """Per-worker CUDA runtime bound to a clock, cost model and device."""

    def __init__(
        self,
        clock: VirtualClock,
        cost_model: CostModel,
        device: GPUDevice,
        *,
        worker: str = "worker_0",
        cupti: Optional[Cupti] = None,
    ) -> None:
        self.clock = clock
        self.cost_model = cost_model
        self.device = device
        self.worker = worker
        #: stream used when callers do not specify one; multi-process workloads
        #: give each worker its own stream (its own CUDA context, in effect).
        self.default_stream = DEFAULT_STREAM
        self.cupti = cupti if cupti is not None else Cupti()
        self._hooks: List[CudaApiHook] = []
        self.api_call_counts: Counter[str] = Counter()
        self.kernel_launch_count = 0
        self.memcpy_count = 0

    # ----------------------------------------------------------------- hooks
    def add_hook(self, hook: CudaApiHook) -> None:
        self._hooks.append(hook)

    def remove_hook(self, hook: CudaApiHook) -> None:
        self._hooks.remove(hook)

    # ------------------------------------------------------------- API calls
    def _api_call(self, api_name: str) -> CuptiApiRecord:
        """Advance the clock across one CPU-side CUDA API call and record it."""
        self.api_call_counts[api_name] += 1
        cost_model = self.cost_model
        cupti = self.cupti
        hooks = self._hooks
        clock = self.clock
        duration = cost_model.cuda_api(api_name)
        if cupti.enabled:
            duration += cost_model.cupti_inflation(api_name)
        for hook in hooks:
            duration += hook.api_overhead_us(api_name)
        start = clock.now_us
        end = clock.advance(duration)
        record = cupti.record_api(api_name, start, end, self.worker)
        for hook in hooks:
            hook.on_api(record)
        return record

    def launch_kernel(self, kernel: KernelSpec, *, stream: Optional[int] = None) -> ApiCallResult:
        """``cudaLaunchKernel``: CPU-side launch, asynchronous device execution."""
        return ApiCallResult(*self.launch_kernels((kernel,), stream=stream)[0])

    def launch_kernels(self, kernels: Sequence[KernelSpec], *, stream: Optional[int] = None
                       ) -> List[Tuple[CuptiApiRecord, GPUActivity]]:
        """One ``cudaLaunchKernel`` per kernel, in order (see the module docstring).

        Returns each kernel's API record and device activity.
        """
        if stream is None:
            stream = self.default_stream
        api_call = self._api_call
        # Sample each duration from this worker's own cost model: a kernel's
        # execution time must not depend on how other workers' launches
        # interleave on the shared device (whose cost model has one shared
        # jitter RNG), and the per-worker model is the one carrying the
        # workload's CostModelConfig.
        kernel_duration = self.cost_model.kernel_duration
        enqueue = self.device.enqueue
        record_kernel = self.cupti.record_kernel
        worker = self.worker
        launched = []
        for kernel in kernels:
            record = api_call("cudaLaunchKernel")
            activity = enqueue("kernel", kernel.name,
                               kernel_duration(kernel.flops, kernel.bytes_accessed),
                               record.end_us, stream, worker)
            record_kernel(activity, record.correlation_id)
            launched.append((record, activity))
        self.kernel_launch_count += len(launched)
        return launched

    def memcpy_async(self, direction: str, num_bytes: float, *, stream: Optional[int] = None) -> ApiCallResult:
        """``cudaMemcpyAsync``: CPU-side call, asynchronous copy-engine transfer."""
        if stream is None:
            stream = COPY_STREAM + 10_000 + self.default_stream
        record = self._api_call("cudaMemcpyAsync")
        self.memcpy_count += 1
        activity = self.device.enqueue_memcpy(
            direction,
            num_bytes=num_bytes,
            launch_complete_us=record.end_us,
            stream=stream,
            worker=self.worker,
            duration_us=self.cost_model.memcpy_duration(num_bytes),
        )
        self.cupti.record_memcpy(activity, record.correlation_id)
        return ApiCallResult(record=record, activity=activity)

    def memset_async(self, num_bytes: float, *, stream: Optional[int] = None) -> ApiCallResult:
        """``cudaMemsetAsync``: modelled as a tiny device-side fill."""
        if stream is None:
            stream = self.default_stream
        record = self._api_call("cudaMemsetAsync")
        activity = self.device.launch_kernel(
            "memset",
            flops=0.0,
            bytes_accessed=float(num_bytes),
            launch_complete_us=record.end_us,
            stream=stream,
            worker=self.worker,
            duration_us=self.cost_model.kernel_duration(0.0, float(num_bytes)),
        )
        self.cupti.record_kernel(activity, record.correlation_id)
        return ApiCallResult(record=record, activity=activity)

    def malloc(self, num_bytes: float) -> ApiCallResult:
        """``cudaMalloc``: CPU-only allocation cost."""
        del num_bytes  # allocation size does not change the modelled CPU cost
        return ApiCallResult(record=self._api_call("cudaMalloc"))

    def free(self) -> ApiCallResult:
        """``cudaFree``."""
        return ApiCallResult(record=self._api_call("cudaFree"))

    # ---------------------------------------------------------------- syncs
    def stream_synchronize(self, stream: Optional[int] = None) -> ApiCallResult:
        """``cudaStreamSynchronize``: block the CPU until the stream drains."""
        if stream is None:
            stream = COPY_STREAM + 10_000 + self.default_stream
        record = self._api_call("cudaStreamSynchronize")
        self.clock.advance_to(self.device.synchronize(self.clock.now_us, stream=stream))
        return ApiCallResult(record=record)

    def device_synchronize(self) -> ApiCallResult:
        """``cudaDeviceSynchronize``: block the CPU until the device drains."""
        record = self._api_call("cudaDeviceSynchronize")
        self.clock.advance_to(self.device.synchronize(self.clock.now_us))
        return ApiCallResult(record=record)

    # ------------------------------------------------------------ statistics
    @property
    def total_api_calls(self) -> int:
        return sum(self.api_call_counts.values())
