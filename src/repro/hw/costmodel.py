"""Deterministic cost model for the simulated hardware/software stack.

Every duration in the reproduction comes from this module: interpreted Python
work, Python <-> C crossings, ML-backend dispatch, CUDA API calls, GPU kernel
execution, simulator steps, and the book-keeping overhead that RL-Scope itself
injects when profiling is enabled.

The model is intentionally simple — a catalogue of base durations plus a
seeded multiplicative jitter — but it is the *only* source of time in the
system.  The profiler never reads it; overhead correction has to recover the
book-keeping durations through calibration, as in the paper (Appendix C).

Jitter is drawn in blocks: each model takes :data:`JITTER_BLOCK` standard
normals from its generator at a time and consumes them one per draw, as
``1.0 + (0.0 + jitter * z)`` — the exact arithmetic of a scalar
``Generator.normal(0.0, jitter)`` call, so every duration is bit-identical to
drawing one normal per call.  The generator therefore runs up to a block
ahead of the draws.

Every jittered duration is one :meth:`CostModel._jittered` draw of a base
duration.  The ``*_base_us`` methods return those bases without drawing, so
hot paths can resolve a base once and pay only for the draw on each call:
the simulated CUDA runtime, the backend engine and the profiler's CUDA hook
cache theirs, and call ``_jittered`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

#: Standard normals a :class:`CostModel` draws from its generator at a time.
JITTER_BLOCK = 1024

#: Default CPU-side cost (microseconds) of each simulated CUDA API call.
DEFAULT_CUDA_API_US: Dict[str, float] = {
    "cudaLaunchKernel": 6.5,
    "cudaMemcpyAsync": 5.0,
    "cudaMemsetAsync": 3.0,
    "cudaStreamSynchronize": 4.0,
    "cudaDeviceSynchronize": 6.0,
    "cudaMalloc": 40.0,
    "cudaFree": 25.0,
}

#: Extra CPU inflation (microseconds) added to each CUDA API call when the
#: (closed-source, in the real system) CUPTI profiling library is enabled.
DEFAULT_CUPTI_INFLATION_US: Dict[str, float] = {
    "cudaLaunchKernel": 3.0,
    "cudaMemcpyAsync": 1.0,
    "cudaMemsetAsync": 0.8,
    "cudaStreamSynchronize": 0.6,
    "cudaDeviceSynchronize": 0.6,
    "cudaMalloc": 1.5,
    "cudaFree": 1.0,
}

#: Simulator step cost in microseconds, keyed by simulator id.  These follow
#: the low/medium/high complexity ordering of Figure 6 in the paper.
DEFAULT_SIM_STEP_US: Dict[str, float] = {
    "Pong": 300.0,
    "Hopper": 240.0,
    "Walker2D": 330.0,
    "HalfCheetah": 290.0,
    "Ant": 750.0,
    "Go": 160.0,
    "AirLearning": 40_000.0,
}

#: Per-op dispatch cost inside the ML backend, keyed by (flavor, engine).
DEFAULT_BACKEND_OP_DISPATCH_US: Dict[str, float] = {
    "tensorflow:graph": 3.5,
    "tensorflow:autograph": 3.5,
    "tensorflow:eager": 16.0,
    "pytorch:eager": 9.0,
}

#: Cost of one Python -> Backend call boundary (argument marshalling, feed
#: dict handling, pybind/ctypes crossing), keyed by (flavor, engine).
DEFAULT_BACKEND_CALL_US: Dict[str, float] = {
    "tensorflow:graph": 55.0,
    "tensorflow:autograph": 60.0,
    "tensorflow:eager": 28.0,
    "pytorch:eager": 14.0,
}


@dataclass
class ProfilingOverheads:
    """Ground-truth book-keeping durations injected when profiling is on.

    These are what delta / difference-of-average calibration must estimate.
    """

    #: Python <-> C interception wrapper, per intercepted call (start+end).
    pyprof_interception_us: float = 1.7
    #: CUDA API interception hook, per intercepted API call.
    cuda_interception_us: float = 1.3
    #: High-level operation annotation, per ``with rls.operation(...)`` block.
    annotation_us: float = 2.6
    #: Closed-source CUPTI inflation per CUDA API call (by API name).
    cupti_inflation_us: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CUPTI_INFLATION_US)
    )


@dataclass
class CostModelConfig:
    """All tunable base durations of the simulated stack (microseconds)."""

    # -- interpreted Python -------------------------------------------------
    python_op_us: float = 0.9          #: one unit of interpreted Python work
    python_c_crossing_us: float = 0.7  #: marshalling for a Python <-> C crossing

    # -- ML backend ---------------------------------------------------------
    backend_call_us: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BACKEND_CALL_US)
    )
    backend_op_dispatch_us: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BACKEND_OP_DISPATCH_US)
    )
    #: Backend-internal inflation applied to op dispatch inside Autograph
    #: functions (the F.6 anomaly: inflated Backend time that is *not*
    #: explained by extra Python->Backend transitions).
    autograph_dispatch_inflation: float = 12.0

    # -- CUDA runtime / GPU -------------------------------------------------
    cuda_api_us: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CUDA_API_US))
    gpu_flops_per_us: float = 13.45e6     #: 13.45 TFLOP/s fp32 (RTX 2080 Ti)
    gpu_bytes_per_us: float = 616e3       #: 616 GB/s device memory bandwidth
    gpu_kernel_fixed_us: float = 1.9      #: fixed kernel launch/teardown on device
    pcie_bytes_per_us: float = 12e3       #: 12 GB/s effective PCIe bandwidth
    pcie_latency_us: float = 1.2

    # -- simulators ----------------------------------------------------------
    sim_step_us: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SIM_STEP_US))
    sim_reset_factor: float = 4.0         #: reset costs this many step durations

    # -- profiler book-keeping ----------------------------------------------
    profiling: ProfilingOverheads = field(default_factory=ProfilingOverheads)

    # -- stochasticity -------------------------------------------------------
    jitter: float = 0.02                  #: relative sigma of multiplicative jitter
    seed: int = 0


class CostModel:
    """Samples durations for the simulated stack.

    Parameters
    ----------
    config:
        Base durations; see :class:`CostModelConfig`.
    seed:
        Overrides ``config.seed`` when given.  Each :class:`CostModel` holds
        its own RNG so that independent workers draw independent jitter.
    """

    def __init__(self, config: Optional[CostModelConfig] = None, seed: Optional[int] = None) -> None:
        self.config = config if config is not None else CostModelConfig()
        self._rng = np.random.default_rng(self.config.seed if seed is None else seed)
        # Drawn standard normals; ``_block[_cursor:]`` are still unused.
        self._block: List[float] = []
        self._cursor = 0

    # ------------------------------------------------------------------ util
    def _jittered(self, base_us: float) -> float:
        """Apply multiplicative jitter; durations never go negative."""
        if base_us <= 0:
            return 0.0
        jitter = self.config.jitter
        if jitter <= 0:
            return float(base_us)
        cursor = self._cursor
        if cursor == len(self._block):
            self._block = self._rng.standard_normal(JITTER_BLOCK).tolist()
            cursor = 0
        self._cursor = cursor + 1
        # ``normal(loc, scale)`` computes ``loc + scale * z``; keep its rounding.
        factor = 1.0 + (0.0 + jitter * self._block[cursor])
        return float(base_us * (factor if factor >= 0.05 else 0.05))

    # ---------------------------------------------------------------- python
    def python_work(self, units: float = 1.0) -> float:
        """Duration of ``units`` of interpreted Python work."""
        return self._jittered(self.config.python_op_us * units)

    def python_c_crossing(self) -> float:
        """Marshalling cost of one Python <-> C transition (one direction)."""
        return self._jittered(self.config.python_c_crossing_us)

    # --------------------------------------------------------------- backend
    def backend_call(self, flavor: str, engine: str) -> float:
        """Cost of one Python -> Backend call boundary."""
        key = f"{flavor}:{engine}"
        try:
            base = self.config.backend_call_us[key]
        except KeyError as exc:
            raise KeyError(f"no backend_call_us entry for {key!r}") from exc
        return self._jittered(base)

    def backend_op_dispatch_base_us(self, flavor: str, engine: str) -> float:
        """Base (un-jittered) cost of dispatching one backend operator."""
        key = f"{flavor}:{engine}"
        try:
            return self.config.backend_op_dispatch_us[key]
        except KeyError as exc:
            raise KeyError(f"no backend_op_dispatch_us entry for {key!r}") from exc

    def backend_op_dispatch(self, flavor: str, engine: str, *, in_autograph_fn: bool = False) -> float:
        """Cost of dispatching one backend operator (CPU side)."""
        base = self.backend_op_dispatch_base_us(flavor, engine)
        if in_autograph_fn and engine == "autograph":
            base *= self.config.autograph_dispatch_inflation
        return self._jittered(base)

    # ------------------------------------------------------------------ CUDA
    def cuda_api_base_us(self, api_name: str) -> float:
        """Base CPU-side duration of a CUDA API call (4 us for an unknown API)."""
        base = self.config.cuda_api_us.get(api_name)
        return 4.0 if base is None else base

    def cupti_inflation_base_us(self, api_name: str) -> float:
        """Base CUPTI inflation of ``api_name`` (0.5 us for an unknown API)."""
        return self.config.profiling.cupti_inflation_us.get(api_name, 0.5)

    def cuda_api(self, api_name: str) -> float:
        """CPU-side duration of a CUDA API call (without CUPTI inflation)."""
        return self._jittered(self.cuda_api_base_us(api_name))

    def cupti_inflation(self, api_name: str) -> float:
        """Extra CPU time added to ``api_name`` when CUPTI is enabled."""
        return self._jittered(self.cupti_inflation_base_us(api_name))

    def kernel_base_us(self, flops: float, bytes_accessed: float) -> float:
        """Base GPU-side duration of a kernel: fixed cost plus its roofline time."""
        compute_us = flops / self.config.gpu_flops_per_us
        memory_us = bytes_accessed / self.config.gpu_bytes_per_us
        return self.config.gpu_kernel_fixed_us + max(compute_us, memory_us)

    def kernel_duration(self, flops: float, bytes_accessed: float) -> float:
        """GPU-side duration of a kernel from its FLOP count and bytes moved."""
        return self._jittered(self.kernel_base_us(flops, bytes_accessed))

    def memcpy_duration(self, num_bytes: float) -> float:
        """GPU-side (copy engine) duration of a host<->device memcpy."""
        return self._jittered(self.config.pcie_latency_us + num_bytes / self.config.pcie_bytes_per_us)

    # ------------------------------------------------------------ simulators
    def sim_step(self, sim_id: str) -> float:
        """CPU duration of one simulator step."""
        try:
            base = self.config.sim_step_us[sim_id]
        except KeyError as exc:
            raise KeyError(f"no sim_step_us entry for simulator {sim_id!r}") from exc
        return self._jittered(base)

    def sim_reset(self, sim_id: str) -> float:
        """CPU duration of a simulator reset."""
        return self.sim_step(sim_id) * self.config.sim_reset_factor

    # -------------------------------------------------- profiler book-keeping
    def interception_base_us(self, kind: str) -> float:
        """Base book-keeping duration of one interception event of ``kind``.

        ``kind`` is one of ``"pyprof"`` (Python <-> C interception),
        ``"cuda"`` (CUDA API interception) or ``"annotation"`` (operation
        annotation book-keeping).
        """
        prof = self.config.profiling
        if kind == "pyprof":
            return prof.pyprof_interception_us
        if kind == "cuda":
            return prof.cuda_interception_us
        if kind == "annotation":
            return prof.annotation_us
        raise ValueError(f"unknown interception overhead kind: {kind!r}")

    def interception_overhead(self, kind: str) -> float:
        """Ground-truth book-keeping duration for one interception event."""
        return self._jittered(self.interception_base_us(kind))


def scaled_sim_costs(scale: float, base: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
    """Utility: scale every simulator step cost by ``scale`` (used in sweeps)."""
    source = dict(base) if base is not None else dict(DEFAULT_SIM_STEP_US)
    return {name: cost * scale for name, cost in source.items()}
