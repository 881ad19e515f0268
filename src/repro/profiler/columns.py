"""Trace records as column arrays: what overlap and correction compute on.

A :class:`TraceColumns` holds a trace's stack events, operations and
overhead markers as NumPy columns over one string table: every category,
name, worker, marker kind and CUPTI API name is an integer id into
``strings``.  The overlap sweep (:mod:`repro.profiler.overlap`), the
overhead correction (:mod:`repro.profiler.correction`), the calibration
counts and the transition counts (:mod:`repro.profiler.analysis`) all run
on these columns, and only on them.  Every trace is a
:class:`ColumnarTrace`, the columns plus the worker metadata, whatever it
came from:

* the profiler's in-memory trace is its row sink's buffer read back as
  columns (:meth:`repro.tracedb.ShardWriter.columnar_trace`);
* a store's ``.tdbc`` chunks decode straight into the same columns
  (:meth:`repro.tracedb.TraceDB.columnar_trace`).

Every float reduction over the columns keeps the sequential order of the
per-record loops it replaced: values are grouped by key in first-occurrence
order (:func:`groups_first_seen`) and each group is summed left to right
with a seeded :func:`numpy.add.accumulate` (:func:`sequential_sum`), never
with a pairwise :func:`numpy.sum`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

#: Id of an absent string (an overhead marker without a CUPTI API name, or
#: a time no operation covers).
NO_ID = -1


class IntervalColumns(NamedTuple):
    """Intervals as columns: ``label`` is the category id of a stack event
    or the name id of an operation (``name`` again, for an operation)."""

    label: np.ndarray   #: int64 string ids
    name: np.ndarray    #: int64 string ids
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
    """A trace's records as columns over one string table."""

    def __init__(self, strings: Sequence[str], *, events: IntervalColumns,
                 operations: IntervalColumns, markers: MarkerColumns) -> None:
        self.strings: List[str] = list(strings)
        self._ids: Dict[str, int] = {value: index for index, value in enumerate(self.strings)}
        self.events = events
        self.operations = operations
        self.markers = markers

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
        return cls((), events=IntervalColumns(ids, ids, ids, times, times),
                   operations=IntervalColumns(ids, ids, ids, times, times),
                   markers=MarkerColumns(ids, ids, ids, times))

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """One table over ``parts`` in order (e.g. a store's chunks or workers)."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        out = cls.empty()
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

        out.events = join("events", 3, IntervalColumns)
        out.operations = join("operations", 3, IntervalColumns)
        out.markers = join("markers", 3, MarkerColumns)
        return out


def trace_columns(trace: Union["ColumnarTrace", TraceColumns]) -> TraceColumns:
    """The columns of ``trace`` (a :class:`ColumnarTrace`, or columns already)."""
    return trace if isinstance(trace, TraceColumns) else trace.columns


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


# -------------------------------------------------------------------- trace
class ColumnarTrace:
    """A trace: its records as :class:`TraceColumns` plus the worker metadata.

    ``events``, ``operations`` and ``markers`` are the record indices of
    each part, so their ``len()`` is the record count.  Plain arrays and
    dicts, so a trace pickles (a shard process sends its workers' traces to
    the parent this way).
    """

    def __init__(self, columns: TraceColumns, metadata: Dict[str, object]) -> None:
        self.columns = columns
        self.metadata = metadata

    @property
    def events(self) -> range:
        return range(len(self.columns.events.start))

    @property
    def operations(self) -> range:
        return range(len(self.columns.operations.start))

    @property
    def markers(self) -> range:
        return range(len(self.columns.markers.time))

    def span_us(self) -> float:
        return self.columns.span_us()
