"""Trace records as column arrays: what overlap and correction compute on.

A :class:`TraceColumns` holds a trace's stack events, operations and
overhead markers as NumPy columns over one string table: every category,
name, worker, marker kind and CUPTI API name is an integer id into
``strings``.  The overlap sweep (:mod:`repro.profiler.overlap`), the
overhead correction (:mod:`repro.profiler.correction`) and the transition
counts (:mod:`repro.profiler.analysis`) all run on these columns, whatever
the trace came from:

* a store's ``.tdbc`` chunks decode straight into columns
  (:meth:`repro.tracedb.TraceDB.columnar_trace`), and no record object is
  built unless a caller asks for one (:class:`ColumnarTrace`);
* an in-memory :class:`~repro.profiler.events.EventTrace` is turned into
  the same columns on demand (:func:`trace_columns`), one part at a time.

Every float reduction over the columns keeps the sequential order of the
per-record loops it replaced: values are grouped by key in first-occurrence
order (:func:`groups_first_seen`) and each group is summed left to right
with a seeded :func:`numpy.add.accumulate` (:func:`sequential_sum`), never
with a pairwise :func:`numpy.sum`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .events import EventTrace

#: Id of an absent string (an overhead marker without a CUPTI API name, or
#: a time no operation covers).
NO_ID = -1


class IntervalColumns(NamedTuple):
    """Intervals as columns: ``label`` is the category id of a stack event
    or the name id of an operation."""

    label: np.ndarray   #: int64 string ids
    worker: np.ndarray  #: int64 string ids
    start: np.ndarray   #: float64 ``start_us``
    end: np.ndarray     #: float64 ``end_us``

    def take(self, index: np.ndarray) -> "IntervalColumns":
        return IntervalColumns(*(column[index] for column in self))


class MarkerColumns(NamedTuple):
    """Overhead markers as columns."""

    kind: np.ndarray    #: int64 string ids
    api: np.ndarray     #: int64 string ids, :data:`NO_ID` for ``api_name=None``
    worker: np.ndarray  #: int64 string ids
    time: np.ndarray    #: float64 ``time_us``


class TraceColumns:
    """A trace's records as columns over one string table.

    Built from a store's chunks with every part present, or from an
    :class:`EventTrace` (``source``), in which case each part is built from
    the objects the first time it is read.
    """

    def __init__(self, strings: Sequence[str] = (), *,
                 events: Optional[IntervalColumns] = None,
                 operations: Optional[IntervalColumns] = None,
                 markers: Optional[MarkerColumns] = None,
                 source: Optional[EventTrace] = None) -> None:
        self.strings: List[str] = list(strings)
        self._ids: Dict[str, int] = {value: index for index, value in enumerate(self.strings)}
        self._events = events
        self._operations = operations
        self._markers = markers
        self._source = source

    # ------------------------------------------------------------ strings
    def intern(self, values: Sequence[Optional[str]]) -> np.ndarray:
        """Ids of ``values`` (added to the table when new); ``None`` -> :data:`NO_ID`."""
        ids = self._ids
        for value in dict.fromkeys(values):
            if value is not None and value not in ids:
                ids[value] = len(self.strings)
                self.strings.append(value)
        return np.fromiter(map({**ids, None: NO_ID}.__getitem__, values),
                           dtype=np.int64, count=len(values))

    def id_of(self, value: str) -> int:
        """Id of ``value``, or :data:`NO_ID` when the trace never mentions it."""
        return self._ids.get(value, NO_ID)

    # -------------------------------------------------------------- parts
    @property
    def events(self) -> IntervalColumns:
        if self._events is None:
            self._events = self._intervals(self._source.events, "category")
        return self._events

    @property
    def operations(self) -> IntervalColumns:
        if self._operations is None:
            self._operations = self._intervals(self._source.operations, "name")
        return self._operations

    @property
    def markers(self) -> MarkerColumns:
        if self._markers is None:
            markers = list(self._source.markers)
            self._markers = MarkerColumns(
                self.intern(list(map(attrgetter("kind"), markers))),
                self.intern(list(map(attrgetter("api_name"), markers))),
                self.intern(list(map(attrgetter("worker"), markers))),
                np.array(list(map(attrgetter("time_us"), markers)), dtype=np.float64),
            )
        return self._markers

    def _intervals(self, records: Sequence, label: str) -> IntervalColumns:
        records = list(records)

        def column(name: str) -> list:
            return list(map(attrgetter(name), records))

        return IntervalColumns(
            self.intern(column(label)),
            self.intern(column("worker")),
            np.array(column("start_us"), dtype=np.float64),
            np.array(column("end_us"), dtype=np.float64),
        )

    # ------------------------------------------------------------ queries
    def workers(self) -> List[str]:
        """Sorted names of every worker with an event or operation."""
        ids = np.unique(np.concatenate((self.events.worker, self.operations.worker)))
        return sorted(self.strings[i] for i in ids.tolist())

    def span_us(self) -> float:
        """Largest end timestamp of any event or operation (0.0 when empty)."""
        ends = np.concatenate((self.events.end, self.operations.end))
        return float(ends.max()) if ends.size else 0.0

    # -------------------------------------------------------------- build
    @classmethod
    def empty(cls) -> "TraceColumns":
        ids, times = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        return cls(events=IntervalColumns(ids, ids, times, times),
                   operations=IntervalColumns(ids, ids, times, times),
                   markers=MarkerColumns(ids, ids, ids, times))

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """One table over ``parts`` in order (e.g. a store's chunks)."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        out = cls()
        # Each part's ids map into the joint table; the trailing NO_ID maps
        # a part's NO_ID (index -1) to NO_ID.
        remaps = [np.array(out.intern(part.strings).tolist() + [NO_ID], dtype=np.int64)
                  for part in parts]

        def join(field: str, id_fields: int, kind):
            columns = [getattr(part, field) for part in parts]
            ids = [np.concatenate([remap[column[f]] for remap, column in zip(remaps, columns)])
                   for f in range(id_fields)]
            floats = [np.concatenate([column[f] for column in columns])
                      for f in range(id_fields, len(kind._fields))]
            return kind(*ids, *floats)

        out._events = join("events", 2, IntervalColumns)
        out._operations = join("operations", 2, IntervalColumns)
        out._markers = join("markers", 3, MarkerColumns)
        return out


def trace_columns(trace: Union[EventTrace, "ColumnarTrace", TraceColumns]) -> TraceColumns:
    """The columns of ``trace``: a store trace's own, else built from its objects."""
    if isinstance(trace, TraceColumns):
        return trace
    if isinstance(trace, ColumnarTrace):
        return trace.columns
    return TraceColumns(source=trace)


# --------------------------------------------------------------- reductions
def groups_first_seen(codes: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(code, positions)`` per distinct code, in first-occurrence order.

    Each group's positions are ascending, so a reduction over them runs in
    record order.
    """
    if codes.size == 0:
        return []
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_group = np.argsort(inverse, kind="stable")
    splits = np.split(by_group, np.cumsum(np.bincount(inverse))[:-1])
    return [(int(uniq[group]), splits[group]) for group in np.argsort(first, kind="stable")]


def sequential_sum(values: np.ndarray, seed: float = 0.0) -> float:
    """``seed + values[0] + values[1] + ...`` added left to right.

    The same chain of float additions as ``total += value`` in a loop.
    """
    return float(np.add.accumulate(np.concatenate(([seed], values)))[-1])


# ------------------------------------------------------------- store trace
class _Loader:
    """Builds the :class:`EventTrace` on first call and keeps it.

    The records sequences share this cell instead of pointing back at their
    :class:`ColumnarTrace`, so a dropped trace is freed at once rather than
    at the next cycle collection.
    """

    def __init__(self, load: Callable[[], EventTrace]) -> None:
        self._load = load
        self._trace: Optional[EventTrace] = None

    def __call__(self) -> EventTrace:
        if self._trace is None:
            self._trace = self._load()
        return self._trace


class _LazyRecords(SequenceABC):
    """One record list of a :class:`ColumnarTrace`: ``len()`` from the
    columns, items from the objects built on first access."""

    def __init__(self, loader: _Loader, field: str, length: int) -> None:
        self._loader = loader
        self._field = field
        self._length = length

    def _records(self) -> list:
        return getattr(self._loader(), self._field)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._records()[index]

    def __iter__(self) -> Iterator:
        return iter(self._records())


class ColumnarTrace:
    """A trace read from a store: column arrays now, record objects on demand.

    ``events``, ``operations`` and ``markers`` are sequences whose ``len()``
    costs nothing; the first item access builds every record object once
    (``load`` returns the :class:`EventTrace`).  ``metadata`` is the merged
    worker metadata, shared with the loaded trace.  Analysis functions read
    :attr:`columns` instead of the objects.
    """

    def __init__(self, columns: TraceColumns, metadata: Dict[str, object],
                 load: Callable[[], EventTrace]) -> None:
        self.columns = columns
        self.metadata = metadata
        self._loader = loader = _Loader(load)
        self.events = _LazyRecords(loader, "events", len(columns.events.start))
        self.operations = _LazyRecords(loader, "operations", len(columns.operations.start))
        self.markers = _LazyRecords(loader, "markers", len(columns.markers.time))

    def to_event_trace(self) -> EventTrace:
        """The records as objects, built on first call."""
        return self._loader()

    def workers(self) -> List[str]:
        return self.columns.workers()

    def span_us(self) -> float:
        return self.columns.span_us()
