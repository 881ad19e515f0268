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
:meth:`CudaRuntime.launch_plan` call.  A :class:`LaunchPlan` holds the
kernels and each kernel's base device duration, resolved against the
runtime's cost model by :meth:`CudaRuntime.plan`; the backend engine keeps
one plan per op signature (see :mod:`repro.backend.engine`), and
:meth:`CudaRuntime.launch_kernels` / :meth:`CudaRuntime.launch_kernel`
resolve a plan for the kernels they are given.  Each kernel is still its own
``cudaLaunchKernel`` API call.  Every API goes through one routine,
:meth:`CudaRuntime._api_call`, which resolves an API name's base durations
once per runtime and accounts each call in this order, unchanged by plans:
the ``cuda_api`` draw, the CUPTI inflation draw (when CUPTI is enabled),
each hook's overhead draw, the clock advance over the call,
``Cupti.record_api`` and each hook's ``on_api``.  A kernel launch then
draws its duration from the plan's base (the draw ``kernel_duration`` would
make), enqueues on the device the runtime holds at that moment (the replica
path swaps ``device`` mid-run) and calls ``Cupti.record_kernel``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Protocol, Sequence, Tuple

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


class LaunchPlan(NamedTuple):
    """An op's kernels with each kernel's base device duration (one cost model)."""

    kernels: Tuple[KernelSpec, ...]
    base_us: Tuple[float, ...]


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
        #: ``(cuda_api, cupti_inflation)`` base durations per API name.
        self._api_bases: Dict[str, Tuple[float, float]] = {}
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
        bases = self._api_bases.get(api_name)
        if bases is None:
            bases = self._api_bases[api_name] = (cost_model.cuda_api_base_us(api_name),
                                                 cost_model.cupti_inflation_base_us(api_name))
        draw = cost_model._jittered
        cupti = self.cupti
        hooks = self._hooks
        duration = draw(bases[0])
        if cupti.enabled:
            duration += draw(bases[1])
        for hook in hooks:
            duration += hook.api_overhead_us(api_name)
        clock = self.clock
        start = clock.now_us
        end = clock.advance(duration)
        record = cupti.record_api(api_name, start, end, self.worker)
        for hook in hooks:
            hook.on_api(record)
        return record

    def plan(self, kernels: Iterable[KernelSpec]) -> LaunchPlan:
        """Resolve ``kernels``' base durations against this runtime's cost model.

        Each duration is sampled from this worker's own cost model: a
        kernel's execution time must not depend on how other workers'
        launches interleave on the shared device (whose cost model has one
        shared jitter RNG), and the per-worker model is the one carrying the
        workload's CostModelConfig.
        """
        kernels = tuple(kernels)
        base_us = self.cost_model.kernel_base_us
        return LaunchPlan(kernels, tuple([base_us(kernel.flops, kernel.bytes_accessed)
                                          for kernel in kernels]))

    def launch_kernel(self, kernel: KernelSpec, *, stream: Optional[int] = None) -> ApiCallResult:
        """``cudaLaunchKernel``: CPU-side launch, asynchronous device execution."""
        return ApiCallResult(*self.launch_kernels((kernel,), stream=stream)[0])

    def launch_kernels(self, kernels: Sequence[KernelSpec], *, stream: Optional[int] = None
                       ) -> List[Tuple[CuptiApiRecord, GPUActivity]]:
        """One ``cudaLaunchKernel`` per kernel, in order (see the module docstring).

        Returns each kernel's API record and device activity.
        """
        launched: List[Tuple[CuptiApiRecord, GPUActivity]] = []
        self.launch_plan(self.plan(kernels), stream=stream, launched=launched)
        return launched

    def launch_plan(self, plan: LaunchPlan, *, stream: Optional[int] = None,
                    launched: Optional[List[Tuple[CuptiApiRecord, GPUActivity]]] = None) -> None:
        """Launch a plan's kernels, in order, appending each one's API record and
        activity to ``launched`` when given."""
        if stream is None:
            stream = self.default_stream
        api_call = self._api_call
        draw = self.cost_model._jittered
        enqueue = self.device.enqueue
        record_kernel = self.cupti.record_kernel
        worker = self.worker
        for kernel, base_us in zip(plan.kernels, plan.base_us):
            record = api_call("cudaLaunchKernel")
            activity = enqueue("kernel", kernel.name, draw(base_us), record.end_us, stream, worker)
            record_kernel(activity, record.correlation_id)
            if launched is not None:
                launched.append((record, activity))
        self.kernel_launch_count += len(plan.kernels)

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
