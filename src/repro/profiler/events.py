"""Event model for RL-Scope traces.

A trace is a flat list of timestamped events, each tagged with a *category*
that identifies its level of the software stack, plus the user's operation
annotations and the profiler's own overhead markers (used later for
correction).  This mirrors the event types the original tool collects via
CUPTI and Python <-> C interception (Section 3.2 of the paper).

The profiler writes each record as a field row and the analysis reads
columns (:mod:`repro.profiler.columns`); :class:`Event` and
:class:`OverheadMarker` are the records a store decodes into for
``repro-trace query`` / ``compact`` and :class:`~repro.tracedb.TraceDB`'s
scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

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
