"""Traces built by hand from record objects, through the profiler's own sink.

The profiler writes every record as a field row into one per-worker
:class:`~repro.tracedb.writer.ShardWriter`, and the analysis reads columns
only.  Tests still find it easiest to write a small trace as a list of
:class:`~repro.profiler.events.Event` / ``OverheadMarker`` objects, so
:class:`EventTrace` keeps them and :meth:`EventTrace.columnar` passes them
through an in-memory sink, as rows, into the same
:class:`~repro.profiler.columns.ColumnarTrace` that ``Profiler.finalize``
returns.  :func:`resolved` and :func:`event_trace` go the other way, from a
trace's columns back to readable records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.profiler.columns import ColumnarTrace, TraceColumns, trace_columns
from repro.profiler.events import CATEGORY_OPERATION, Event, OverheadMarker
from repro.tracedb.format import interval_row, marker_row
from repro.tracedb.writer import ShardWriter


@dataclass
class EventTrace:
    """Stack events, operations and overhead markers as objects."""

    events: List[Event] = field(default_factory=list)
    operations: List[Event] = field(default_factory=list)
    markers: List[OverheadMarker] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_event(self, event: Event) -> None:
        """Add a stack event, or an operation (by its category)."""
        if event.category == CATEGORY_OPERATION:
            self.operations.append(event)
        else:
            self.events.append(event)

    def add_marker(self, marker: OverheadMarker) -> None:
        self.markers.append(marker)

    def workers(self) -> List[str]:
        return sorted({e.worker for e in self.events} | {op.worker for op in self.operations})

    def sink(self, sink: Optional[ShardWriter] = None) -> ShardWriter:
        """``sink`` (by default a new in-memory one) with every event, then
        every operation, then every marker added as a row."""
        if sink is None:
            sink = ShardWriter(None, "trace", spill=False)
        for event in self.events:
            sink.add_event(interval_row(event))
        for operation in self.operations:
            sink.add_operation(interval_row(operation))
        for marker in self.markers:
            sink.add_marker(marker_row(marker))
        return sink

    def columnar(self) -> ColumnarTrace:
        """The records as the trace ``Profiler.finalize`` would return."""
        return self.sink().columnar_trace(dict(self.metadata))


def resolved(trace) -> Tuple[list, list, list]:
    """The records of a trace (or its columns) with every string id resolved.

    Events as ``(category, name, worker, start_us, end_us)``, operations as
    ``(name, name, worker, start_us, end_us)`` and markers as ``(kind,
    api_name, worker, time_us)``, in record order; two traces with the same
    records compare equal whatever their string tables.
    """
    columns: TraceColumns = trace_columns(trace)
    # NO_ID (-1) picks the trailing None.
    lookup = np.array(columns.strings + [None], dtype=object)

    def rows(part) -> list:
        return list(zip(*(lookup[column].tolist() if column.dtype.kind == "i" else column.tolist()
                          for column in part)))

    return rows(columns.events), rows(columns.operations), rows(columns.markers)


def event_trace(trace) -> EventTrace:
    """A trace's records as objects (phases are not in the columns: all ``default``)."""
    events, operations, markers = resolved(trace)
    return EventTrace(
        events=[Event(category, name, start, end, worker)
                for category, name, worker, start, end in events],
        operations=[Event(CATEGORY_OPERATION, name, start, end, worker)
                    for _, name, worker, start, end in operations],
        markers=[OverheadMarker(kind, time, api_name, worker)
                 for kind, api_name, worker, time in markers],
        metadata=dict(trace.metadata) if isinstance(trace, ColumnarTrace) else {})
