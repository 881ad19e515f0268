"""RL-Scope user-facing API: phases, operation annotations, and the profiler session.

Usage mirrors the paper's Figure 2::

    profiler = Profiler(system)
    profiler.attach(engine=engine, envs=[env])
    profiler.set_phase("data_collection")
    with profiler.operation("mcts_tree_search"):
        ...
        with profiler.operation("expand_leaf"):
            session_run(...)
    trace = profiler.finalize()

Every ``with profiler.operation(...)`` block records an operation event; the
attached interception hooks record Backend / Simulator / CUDA / GPU events
transparently; Python time is recorded as the gap between C-level events
while at least one operation is open.  When book-keeping is enabled the
profiler also *injects* its own overhead into the virtual clock and leaves an
overhead marker behind so offline correction can subtract it (Section 3.4).

Every record is a field row written into one per-worker
:class:`~repro.tracedb.writer.ShardWriter` (:attr:`Profiler.sink`); the
three modes differ only in that sink's flush policy (in memory, dumped to a
store at :meth:`~Profiler.finalize`, or streamed).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..tracedb.writer import StreamingTraceWriter

from ..backend.engine import BackendEngine
from ..system import System
from .columns import ColumnarTrace
from .events import (
    CATEGORY_GPU,
    CATEGORY_OPERATION,
    CATEGORY_PYTHON,
    OVERHEAD_ANNOTATION,
)
from .interception import BackendInterception, CudaInterceptionHook, SimulatorInterception


@dataclass(frozen=True)
class ProfilerConfig:
    """Which book-keeping subsystems are active.

    Each flag enables both the *recording* and the *overhead* of that
    subsystem — they are inseparable, as in the real tool.  Calibration runs
    the same workload under several partial configurations (Appendix C.1).
    """

    annotations: bool = True          #: record operation annotations
    pyprof: bool = True               #: intercept Python <-> C transitions (backend & simulator)
    cuda_interception: bool = True    #: intercept CUDA API calls (librlscope.so hooks)
    cupti: bool = True                #: enable CUPTI activity collection (GPU kernel times)

    @classmethod
    def full(cls) -> "ProfilerConfig":
        return cls()

    @classmethod
    def uninstrumented(cls) -> "ProfilerConfig":
        return cls(annotations=False, pyprof=False, cuda_interception=False, cupti=False)

    @classmethod
    def only(cls, **flags: bool) -> "ProfilerConfig":
        """A configuration with everything off except the given flags."""
        return replace(cls.uninstrumented(), **flags)


class Profiler:
    """One worker's RL-Scope profiling session."""

    def __init__(
        self,
        system: System,
        config: Optional[ProfilerConfig] = None,
        *,
        worker: Optional[str] = None,
        trace_dir: Optional[str] = None,
        streaming: bool = False,
        chunk_events: int = 50_000,
        store: Optional["StreamingTraceWriter"] = None,
    ) -> None:
        """Without ``trace_dir`` or ``store`` the trace stays in memory and
        :meth:`finalize` returns it as a :class:`ColumnarTrace`.  With a
        ``trace_dir`` the trace is written into a :mod:`repro.tracedb` store
        there, in chunks of ``chunk_events`` records: at :meth:`finalize`, or,
        with ``streaming=True`` (or an explicit shared ``store``), whenever a
        chunk's worth is buffered, so at most one chunk of records stays in
        memory.  Writes cost zero virtual time; read a store back through
        :meth:`open_tracedb` / :class:`repro.tracedb.TraceDB`.
        """
        from ..tracedb.writer import ShardWriter, StreamingTraceWriter

        self.system = system
        self.config = config if config is not None else ProfilerConfig.full()
        self.worker = worker if worker is not None else system.worker
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        if streaming and store is None and trace_dir is None:
            raise ValueError("streaming=True requires trace_dir (or an explicit store)")
        spill = streaming or store is not None
        self._owns_store = store is None and trace_dir is not None
        if self._owns_store:
            store = StreamingTraceWriter(trace_dir, chunk_events=chunk_events)
        self._store = store
        #: The per-worker row sink every record is written into; only its
        #: flush policy depends on the mode.
        self.sink = (ShardWriter(None, self.worker, spill=False) if store is None
                     else store.shard(self.worker, spill=spill))
        self.metadata: Dict[str, object] = {"worker": self.worker}
        self._trace: Optional[ColumnarTrace] = None
        self.phase = "default"
        self._operation_starts: List[float] = []
        self._operation_names: List[str] = []
        self._c_depth = 0
        self._python_resume_us: Optional[float] = None
        self._attached_engines: List[BackendEngine] = []
        self._attached_envs: List[object] = []
        self._cuda_hook: Optional[CudaInterceptionHook] = None
        self._finalized = False
        self._warned_unbalanced_exit = False

    # ---------------------------------------------------------------- attach
    def attach(self, *, engine: Optional[BackendEngine] = None,
               engines: Sequence[BackendEngine] = (), envs: Sequence[object] = ()) -> "Profiler":
        """Install transparent interception on backends, simulators and CUDA.

        No recompilation or modification of the instrumented components is
        required: the profiler attaches via their boundary-listener slots and
        the CUDA runtime's hook list.
        """
        all_engines = list(engines) + ([engine] if engine is not None else [])
        if self.config.pyprof:
            for eng in all_engines:
                eng.boundary = BackendInterception(self)
                self._attached_engines.append(eng)
            for env in envs:
                env.boundary = SimulatorInterception(self)  # type: ignore[attr-defined]
                self._attached_envs.append(env)
        if self.config.cuda_interception:
            self._cuda_hook = CudaInterceptionHook(self)
            self.system.cuda.add_hook(self._cuda_hook)
        if self.config.cupti:
            self.system.cuda.cupti.enable()
        return self

    def detach(self) -> None:
        """Remove interception from every attached component."""
        from ..backend.engine import NULL_BOUNDARY
        for eng in self._attached_engines:
            eng.boundary = NULL_BOUNDARY
        for env in self._attached_envs:
            env.boundary = None  # type: ignore[attr-defined]
        self._attached_engines.clear()
        self._attached_envs.clear()
        if self._cuda_hook is not None:
            self.system.cuda.remove_hook(self._cuda_hook)
            self._cuda_hook = None
        if self.config.cupti:
            self.system.cuda.cupti.disable()

    # ----------------------------------------------------------------- phases
    def set_phase(self, phase: str) -> None:
        """Set the current training phase (e.g. ``data_collection``, ``sgd_updates``)."""
        self.phase = phase

    # ------------------------------------------------------------- operations
    @contextmanager
    def operation(self, name: str, *, metadata: Optional[dict] = None) -> Iterator[None]:
        """Annotate a high-level algorithmic operation (Figure 2 of the paper).

        ``metadata`` is attached to the recorded operation event.  The dict is
        snapshotted when the block exits, so callees may fill it in during the
        block — the batched inference service uses this to attribute shared
        ``expand_leaf`` batch time back to the requesting worker.
        """
        if not self.config.annotations:
            yield
            return
        clock = self.system.clock
        # Book-keeping overhead of recording the start timestamp.
        self.inject_overhead(OVERHEAD_ANNOTATION, "annotation")
        if self._c_depth == 0:
            self._flush_python(clock.now_us)
            self._python_resume_us = clock.now_us
        start = clock.now_us
        self._operation_names.append(name)
        self._operation_starts.append(start)
        try:
            yield
        finally:
            self.inject_overhead(OVERHEAD_ANNOTATION, "annotation")
            end = clock.now_us
            if self._c_depth == 0:
                self._flush_python(end)
                self._python_resume_us = end
            self._operation_names.pop()
            self.sink.add_operation((CATEGORY_OPERATION, name, self._operation_starts.pop(), end,
                                     self.worker, self.phase,
                                     dict(metadata) if metadata else None))

    def inject_overhead(self, kind: str, cost: str) -> None:
        """Leave a ``kind`` overhead marker now, then spend the ``cost``
        book-keeping's duration on the virtual clock."""
        clock = self.system.clock
        self.sink.add_marker((kind, clock.now_us, None, self.worker, self.phase))
        clock.advance(self.system.cost_model.interception_overhead(cost))

    # ---------------------------------------------------- python gap tracking
    def _flush_python(self, now_us: float) -> None:
        """Emit a Python event covering the gap since we last returned to Python."""
        resume = self._python_resume_us
        if resume is None or not self._operation_names:
            self._python_resume_us = None
            return
        if now_us > resume:
            self.record_event(CATEGORY_PYTHON, "python", resume, now_us)
        self._python_resume_us = None

    # Called by the interception hooks.
    def on_c_enter(self) -> None:
        self._flush_python(self.system.clock.now_us)
        self._c_depth += 1

    def on_c_exit(self) -> None:
        if self._c_depth == 0:
            # Unbalanced enter/exit indicates a broken interception hook;
            # surface it (once) instead of silently swallowing the underflow.
            if not self._warned_unbalanced_exit:
                warnings.warn(
                    f"unbalanced C enter/exit in worker {self.worker!r}: "
                    "on_c_exit called with no matching on_c_enter",
                    RuntimeWarning, stacklevel=2)
                self._warned_unbalanced_exit = True
            self._python_resume_us = self.system.clock.now_us
            return
        self._c_depth -= 1
        if self._c_depth == 0:
            self._python_resume_us = self.system.clock.now_us

    def record_event(self, category: str, name: str, start_us: float, end_us: float) -> None:
        """Record one stack event of this worker, in the current phase."""
        self.sink.add_event((category, name, start_us, end_us, self.worker, self.phase, None))

    # -------------------------------------------------------------- finalize
    def finalize(self) -> Optional[ColumnarTrace]:
        """Close the session: record GPU activity from CUPTI and seal the sink.

        Returns the trace when the sink still holds every record (no store,
        or a store written only now), and ``None`` after streaming: the
        records are in the store, and nothing is decoded back.
        """
        if self._finalized:
            return self._trace
        self._flush_python(self.system.clock.now_us)
        if self.config.cupti:
            self._record_gpu_activity()
        self.metadata.setdefault("total_time_us", self.system.clock.now_us)
        self.detach()
        self._finalized = True
        if not self.sink.spill:
            self._trace = self.sink.columnar_trace(dict(self.metadata))
        if self._store is not None:
            self._store.close_shard(self.worker, metadata=dict(self.metadata))
            if self._owns_store:
                self._store.close()
        return self._trace

    def _record_gpu_activity(self) -> None:
        """This worker's CUPTI kernel and memcpy records, as GPU events."""
        cupti = self.system.cuda.cupti
        worker = self.worker
        gpu = [(name, start_us, end_us)
               for name, start_us, end_us, _, record_worker, _ in cupti.kernel_records
               if record_worker == worker]
        gpu += [(f"memcpy_{direction}", start_us, end_us)
                for direction, start_us, end_us, _, record_worker, _ in cupti.memcpy_records
                if record_worker == worker]
        self.sink.add_events(CATEGORY_GPU, gpu, worker, self.phase)

    @property
    def store(self) -> Optional["StreamingTraceWriter"]:
        """The trace store writer (None when the trace stays in memory)."""
        return self._store

    def open_tracedb(self):
        """Open the trace store for querying (once it has been written)."""
        if self._store is None:
            raise ValueError("no trace store: profiler was created without trace_dir or store")
        from ..tracedb.store import TraceDB
        return TraceDB(str(self._store.directory))
