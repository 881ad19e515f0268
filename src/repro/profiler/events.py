"""Event model for RL-Scope traces.

A trace is a flat list of timestamped events, each tagged with a *category*
that identifies its level of the software stack, plus the user's operation
annotations and the profiler's own overhead markers (used later for
correction).  This mirrors the event types the original tool collects via
CUPTI and Python <-> C interception (Section 3.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# Stack-level categories (CPU side).
CATEGORY_PYTHON = "Python"
CATEGORY_SIMULATOR = "Simulator"
CATEGORY_BACKEND = "Backend"
CATEGORY_CUDA_API = "CUDA"
# Device side.
CATEGORY_GPU = "GPU"
# User annotations.
CATEGORY_OPERATION = "Operation"

CPU_CATEGORIES = (CATEGORY_PYTHON, CATEGORY_SIMULATOR, CATEGORY_BACKEND, CATEGORY_CUDA_API)
GPU_CATEGORIES = (CATEGORY_GPU,)

#: Priority used when a region has several CPU categories active at once
#: (e.g. a CUDA API call issued from inside a backend call): the most
#: specific (deepest) level wins, as in the paper's breakdowns.
CPU_CATEGORY_PRIORITY = {
    CATEGORY_CUDA_API: 3,
    CATEGORY_SIMULATOR: 2,
    CATEGORY_BACKEND: 1,
    CATEGORY_PYTHON: 0,
}

# Overhead marker kinds (what the profiler's own book-keeping did).
OVERHEAD_PYPROF = "pyprof_interception"
OVERHEAD_CUDA_INTERCEPTION = "cuda_interception"
OVERHEAD_ANNOTATION = "annotation"
OVERHEAD_CUPTI = "cupti"

OVERHEAD_KINDS = (OVERHEAD_PYPROF, OVERHEAD_CUDA_INTERCEPTION, OVERHEAD_ANNOTATION, OVERHEAD_CUPTI)

#: Which category each overhead kind's CPU time lands in (and therefore which
#: category the correction subtracts it from).
OVERHEAD_CATEGORY = {
    OVERHEAD_PYPROF: CATEGORY_PYTHON,
    OVERHEAD_ANNOTATION: CATEGORY_PYTHON,
    OVERHEAD_CUDA_INTERCEPTION: CATEGORY_CUDA_API,
    OVERHEAD_CUPTI: CATEGORY_CUDA_API,
}


@dataclass(frozen=True)
class Event:
    """One timestamped interval at a particular stack level.

    ``metadata`` carries optional structured attribution (e.g. batched
    inference events record the serving batch size and requesting share so
    shared ``expand_leaf`` time can be charged back to each worker).  It is
    ``None`` for ordinary events, takes no part in overlap computation, and
    is only serialised when present, so traces without metadata are
    byte-identical to those written before the field existed.
    """

    category: str
    name: str
    start_us: float
    end_us: float
    worker: str = "worker_0"
    phase: str = "default"
    metadata: Optional[Mapping[str, object]] = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def overlaps(self, other: "Event") -> bool:
        return self.start_us < other.end_us and other.start_us < self.end_us

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "category": self.category,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "worker": self.worker,
            "phase": self.phase,
        }
        if self.metadata is not None:
            data["metadata"] = dict(self.metadata)
        return data


@dataclass(frozen=True)
class OverheadMarker:
    """A point where profiler book-keeping code ran.

    The profiler knows *when* and *what kind* of book-keeping happened, but
    not its true duration — that is exactly the information available to the
    real tool, which must estimate durations via calibration (Appendix C).
    """

    kind: str
    time_us: float
    api_name: Optional[str] = None
    worker: str = "worker_0"
    phase: str = "default"

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "time_us": self.time_us,
            "api_name": self.api_name,
            "worker": self.worker,
            "phase": self.phase,
        }


@dataclass
class EventTrace:
    """A complete trace: stack events, operation annotations and overhead markers."""

    events: List[Event] = field(default_factory=list)
    operations: List[Event] = field(default_factory=list)
    markers: List[OverheadMarker] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ add
    def add_event(self, event: Event) -> None:
        if event.end_us < event.start_us:
            raise ValueError(f"event ends before it starts: {event}")
        if event.category == CATEGORY_OPERATION:
            self.operations.append(event)
        else:
            self.events.append(event)

    def add_marker(self, marker: OverheadMarker) -> None:
        self.markers.append(marker)

    # Field-wise adds for the per-CUDA-call records: this trace builds the
    # objects, while a streaming trace appends the fields as a row instead.
    def add_interval(self, category: str, name: str, start_us: float, end_us: float,
                     worker: str, phase: str) -> None:
        """Record an interval event without metadata, given by its fields."""
        self.add_event(Event(category, name, start_us, end_us, worker, phase))

    def add_marker_at(self, kind: str, time_us: float, api_name: Optional[str],
                      worker: str, phase: str) -> None:
        """Record an overhead marker, given by its fields."""
        self.markers.append(OverheadMarker(kind, time_us, api_name, worker, phase))

    def add_api_call(self, api_name: str, start_us: float, end_us: float, worker: str,
                     phase: str, marker_kinds: Sequence[str]) -> None:
        """Record one intercepted CUDA API call: its event, then one marker per kind at its end."""
        self.add_interval(CATEGORY_CUDA_API, api_name, start_us, end_us, worker, phase)
        for kind in marker_kinds:
            self.markers.append(OverheadMarker(kind, end_us, api_name, worker, phase))

    def add_intervals(self, category: str, intervals: Iterable[Tuple[str, float, float]],
                      worker: str, phase: str) -> None:
        """Record ``(name, start_us, end_us)`` stack events of one category, in order."""
        for name, start_us, end_us in intervals:
            self.add_interval(category, name, start_us, end_us, worker, phase)

    def extend(self, other: "EventTrace") -> None:
        """Merge another trace (e.g. another worker's) into this one."""
        self.events.extend(other.events)
        self.operations.extend(other.operations)
        self.markers.extend(other.markers)
        for key, value in other.metadata.items():
            self.metadata.setdefault(key, value)

    # -------------------------------------------------------------- queries
    def events_by_category(self, category: str) -> List[Event]:
        return [e for e in self.events if e.category == category]

    def workers(self) -> List[str]:
        names = {e.worker for e in self.events} | {op.worker for op in self.operations}
        return sorted(names)

    def span_us(self) -> float:
        """Total wall-clock span covered by the trace (max end over all events)."""
        ends = [e.end_us for e in self.events] + [op.end_us for op in self.operations]
        return max(ends, default=0.0)

    def total_events(self) -> int:
        return len(self.events) + len(self.operations)

    def marker_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for marker in self.markers:
            counts[marker.kind] = counts.get(marker.kind, 0) + 1
        return counts

    def filter_worker(self, worker: str) -> "EventTrace":
        return EventTrace(
            events=[e for e in self.events if e.worker == worker],
            operations=[op for op in self.operations if op.worker == worker],
            markers=[m for m in self.markers if m.worker == worker],
            metadata=dict(self.metadata),
        )


def merge_traces(traces: Iterable[EventTrace]) -> EventTrace:
    """Merge per-worker traces into a single multi-process trace."""
    merged = EventTrace()
    for trace in traces:
        merged.extend(trace)
    return merged
