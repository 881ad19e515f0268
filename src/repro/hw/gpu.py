"""Simulated GPU device.

The device keeps one timeline per stream.  CPU-side code (the simulated CUDA
runtime) *launches* work: a kernel or memcpy starts at
``max(launch completion time, stream free time)`` and occupies the stream for
its modelled duration.  The CPU does not wait unless it synchronizes — this
asynchrony is what produces the CPU/GPU overlap that RL-Scope's analysis
measures.

A single :class:`GPUDevice` may be shared by several workers (the Minigo
scale-up workload); their activity interleaves on the device timeline just as
kernels from multiple processes share a real GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional

from .costmodel import CostModel

DEFAULT_STREAM = 0
COPY_STREAM = 1

_tuple_new = tuple.__new__


class GPUActivity(NamedTuple):
    """One completed unit of device work (kernel execution or memcpy).

    A named field row: cheap to build once per launch, read by field name.
    """

    kind: str          #: ``"kernel"`` or ``"memcpy"``
    name: str          #: kernel name, or memcpy direction (``"HtoD"`` / ``"DtoH"``)
    start_us: float
    end_us: float
    stream: int = DEFAULT_STREAM
    worker: str = "worker_0"

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class GPUDevice:
    """A virtual accelerator with per-stream FIFO execution."""

    name: str = "SimRTX2080Ti"
    cost_model: CostModel = field(default_factory=CostModel)
    _stream_free_us: Dict[int, float] = field(default_factory=dict)
    _activity: List[GPUActivity] = field(default_factory=list)

    # ------------------------------------------------------------------ exec
    def launch_kernel(
        self,
        name: str,
        *,
        flops: float,
        bytes_accessed: float,
        launch_complete_us: float,
        stream: int = DEFAULT_STREAM,
        worker: str = "worker_0",
        duration_us: Optional[float] = None,
    ) -> GPUActivity:
        """Enqueue a kernel; returns its device-side activity record."""
        if duration_us is None:
            duration_us = self.cost_model.kernel_duration(flops, bytes_accessed)
        return self.enqueue("kernel", name, duration_us, launch_complete_us, stream, worker)

    def enqueue_memcpy(
        self,
        direction: str,
        *,
        num_bytes: float,
        launch_complete_us: float,
        stream: int = COPY_STREAM,
        worker: str = "worker_0",
        duration_us: Optional[float] = None,
    ) -> GPUActivity:
        """Enqueue an async host<->device copy on the copy stream."""
        if direction not in ("HtoD", "DtoH", "DtoD"):
            raise ValueError(f"unknown memcpy direction: {direction!r}")
        if duration_us is None:
            duration_us = self.cost_model.memcpy_duration(num_bytes)
        return self.enqueue("memcpy", direction, duration_us, launch_complete_us, stream, worker)

    def enqueue(
        self,
        kind: str,
        name: str,
        duration_us: float,
        launch_complete_us: float,
        stream: int,
        worker: str,
    ) -> GPUActivity:
        """Queue ``duration_us`` of device work behind ``stream``'s earlier work."""
        if duration_us < 0:
            raise ValueError("device work cannot have a negative duration")
        free_at = self._stream_free_us.get(stream, 0.0)
        start = free_at if free_at > launch_complete_us else launch_complete_us
        end = start + duration_us
        self._stream_free_us[stream] = end
        # ``tuple.__new__`` skips the generated ``__new__``'s Python frame.
        activity = _tuple_new(GPUActivity, (kind, name, start, end, stream, worker))
        self._activity.append(activity)
        return activity

    # ------------------------------------------------------------------ sync
    def stream_free_time(self, stream: int = DEFAULT_STREAM) -> float:
        """Time at which all currently queued work on ``stream`` completes."""
        return self._stream_free_us.get(stream, 0.0)

    def device_free_time(self) -> float:
        """Time at which all queued work on every stream completes."""
        if not self._stream_free_us:
            return 0.0
        return max(self._stream_free_us.values())

    def synchronize(self, now_us: float, stream: Optional[int] = None) -> float:
        """Return the time at which a CPU sync started at ``now_us`` returns."""
        target = self.stream_free_time(stream) if stream is not None else self.device_free_time()
        return max(now_us, target)

    # ------------------------------------------------------------- inspection
    @property
    def activity(self) -> List[GPUActivity]:
        """All device activity, in launch order."""
        return list(self._activity)

    def kernels(self) -> List[GPUActivity]:
        return [a for a in self._activity if a.kind == "kernel"]

    def memcpys(self) -> List[GPUActivity]:
        return [a for a in self._activity if a.kind == "memcpy"]

    def busy_time_us(self, kinds: Iterable[str] = ("kernel", "memcpy")) -> float:
        """Total device-busy time (union of activity intervals of ``kinds``)."""
        intervals = sorted(
            (a.start_us, a.end_us) for a in self._activity if a.kind in kinds
        )
        busy = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                busy += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    def reset(self) -> None:
        """Clear all activity and stream state (new workload on same device)."""
        self._stream_free_us.clear()
        self._activity.clear()
