"""On-disk format of a TraceDB store.

A store directory contains

* ``tracedb_index.json`` — one JSON index describing every worker's shard:
  the ordered list of chunk files with their :class:`ChunkMeta` (record
  counts, covered time range, phases and categories present), plus the
  worker's trace metadata.
* ``shard_<worker>_<seq>.tdbc`` — columnar chunk files, one zlib stream
  each (fixed level, no timestamp, so identical records give identical
  bytes).  Decompressed, a chunk is

  - the magic ``b"TDBC"`` and the ``uint32`` length of a JSON header;
  - the JSON header: record counts, the string table (every category, name,
    worker, phase, marker kind and ``api_name`` interned once, in
    first-seen order) and a sparse metadata table of ``[record index,
    metadata]`` pairs for the intervals that carry metadata;
  - the interval columns — stack events followed by operations — as
    little-endian ``uint32`` category / name / worker / phase string ids
    then ``float64`` ``start_us`` / ``end_us``;
  - the marker columns: ``uint32`` kind / ``api_name`` / worker / phase ids
    (``0xFFFFFFFF`` for ``api_name=None``) then ``float64`` ``time_us``.

Metadata is JSON-encoded, so it round-trips exactly as it did in the
per-record JSONL chunks of ``tracedb-v1`` stores.  Those chunks
(``.jsonl`` / ``.jsonl.gz``) and stores written by the profiler's original
dump-at-end writer (``rlscope_index.json`` plus plain-JSON chunks) stay
readable; legacy chunks carry no per-chunk statistics, so queries simply
cannot skip them.  ``repro-trace compact`` rewrites either kind as a
``tracedb-v2`` store.
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..profiler.columns import NO_ID, IntervalColumns, MarkerColumns, TraceColumns
from ..profiler.events import Event, OverheadMarker

INDEX_FILE = "tracedb_index.json"
LEGACY_INDEX_FILE = "rlscope_index.json"
STORE_FORMAT = "tracedb-v2"
#: Index formats :func:`read_index` accepts (v1 stores hold JSONL chunks).
READABLE_FORMATS = ("tracedb-v1", STORE_FORMAT)
CHUNK_PREFIX = "shard"
CHUNK_SUFFIX = ".tdbc"

#: Default number of buffered records before a shard flushes a chunk.
DEFAULT_CHUNK_EVENTS = 50_000

_MAGIC = b"TDBC"
_PREAMBLE = struct.Struct("<4sI")
_ID = "<u4"
_TIME = "<f8"
_NO_STRING = 0xFFFFFFFF
_ZLIB_LEVEL = 6


@dataclass(frozen=True)
class ChunkMeta:
    """Index entry for one chunk file.

    ``start_us`` / ``end_us`` / ``phases`` / ``categories`` are ``None`` for
    legacy chunks whose statistics are unknown; such chunks can never be
    skipped by a filtered scan.
    """

    file: str
    worker: str
    seq: int
    num_events: Optional[int] = None
    num_operations: Optional[int] = None
    num_markers: Optional[int] = None
    start_us: Optional[float] = None
    end_us: Optional[float] = None
    phases: Optional[Tuple[str, ...]] = None
    categories: Optional[Tuple[str, ...]] = None
    legacy: bool = False

    @property
    def num_records(self) -> Optional[int]:
        if self.num_events is None or self.num_operations is None or self.num_markers is None:
            return None
        return self.num_events + self.num_operations + self.num_markers

    # ------------------------------------------------------------- filtering
    def may_contain(
        self,
        *,
        phase: Optional[str] = None,
        categories: Optional[Sequence[str]] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
    ) -> bool:
        """Whether the chunk can hold records matching the filters.

        Unknown statistics (legacy chunks) conservatively return ``True``.
        """
        if phase is not None and self.phases is not None and phase not in self.phases:
            return False
        if categories is not None and self.categories is not None:
            if not set(categories) & set(self.categories):
                return False
        if start_us is not None and self.end_us is not None and self.end_us <= start_us:
            return False
        if end_us is not None and self.start_us is not None and self.start_us >= end_us:
            return False
        return True

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "worker": self.worker,
            "seq": self.seq,
            "num_events": self.num_events,
            "num_operations": self.num_operations,
            "num_markers": self.num_markers,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "phases": None if self.phases is None else list(self.phases),
            "categories": None if self.categories is None else list(self.categories),
            "legacy": self.legacy,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChunkMeta":
        phases = data.get("phases")
        categories = data.get("categories")
        return cls(
            file=str(data["file"]),
            worker=str(data["worker"]),
            seq=int(data["seq"]),                              # type: ignore[arg-type]
            num_events=None if data.get("num_events") is None else int(data["num_events"]),          # type: ignore[arg-type]
            num_operations=None if data.get("num_operations") is None else int(data["num_operations"]),  # type: ignore[arg-type]
            num_markers=None if data.get("num_markers") is None else int(data["num_markers"]),        # type: ignore[arg-type]
            start_us=None if data.get("start_us") is None else float(data["start_us"]),               # type: ignore[arg-type]
            end_us=None if data.get("end_us") is None else float(data["end_us"]),                     # type: ignore[arg-type]
            phases=None if phases is None else tuple(str(p) for p in phases),      # type: ignore[union-attr]
            categories=None if categories is None else tuple(str(c) for c in categories),  # type: ignore[union-attr]
            legacy=bool(data.get("legacy", False)),
        )


#: An interval (stack event or operation) as a field row, in
#: :class:`~repro.profiler.events.Event` field order.
IntervalRow = Tuple[str, str, float, float, str, str, Optional[Mapping[str, object]]]
#: An overhead marker as a field row, in
#: :class:`~repro.profiler.events.OverheadMarker` field order.
MarkerRow = Tuple[str, float, Optional[str], str, str]

#: The field row of an :class:`~repro.profiler.events.Event`.
interval_row = attrgetter("category", "name", "start_us", "end_us", "worker", "phase", "metadata")
#: The field row of an :class:`~repro.profiler.events.OverheadMarker`.
marker_row = attrgetter("kind", "time_us", "api_name", "worker", "phase")


class _Interner(dict):
    """Value -> provisional id, numbered in the order values are first added."""

    def __missing__(self, value: object) -> int:
        self[value] = index = len(self)
        return index


#: The interner key of a marker's ``api_name=None`` (never a table string).
_NO_API = object()


class ChunkBuffer:
    """One chunk's records as they are buffered: provisional string ids and times.

    Every string is interned when its record is added, into ids numbered in
    first-added order; :meth:`columns` renumbers them into the chunk's
    column-order first-seen string table (see the module docstring), so the
    encoded chunk is the same as interning the records' field rows column by
    column.  Each interval keeps ``category, name, worker, phase`` ids and
    ``start_us, end_us``; each marker ``kind, api_name, worker, phase`` ids
    and ``time_us``.
    """

    def __init__(self) -> None:
        self.ids = _Interner()
        # Flat lists: appending to a list is several times cheaper than to an array.
        self.events: List[int] = []
        self.event_times: List[float] = []
        self.operations: List[int] = []
        self.operation_times: List[float] = []
        self.markers: List[int] = []
        self.marker_times: List[float] = []
        #: ``(index among the events / operations, metadata)`` of intervals carrying any.
        self.event_metadata: List[Tuple[int, Mapping[str, object]]] = []
        self.operation_metadata: List[Tuple[int, Mapping[str, object]]] = []

    @classmethod
    def from_payload(cls, payload: "ChunkPayload") -> "ChunkBuffer":
        buffer = cls()
        for event in payload.events:
            buffer.add_event(interval_row(event))
        for operation in payload.operations:
            buffer.add_operation(interval_row(operation))
        for marker in payload.markers:
            buffer.add_marker(marker_row(marker))
        return buffer

    # ------------------------------------------------------------------- add
    def add_event(self, row: IntervalRow) -> None:
        self._add_interval(row, self.events, self.event_times, self.event_metadata)

    def add_operation(self, row: IntervalRow) -> None:
        self._add_interval(row, self.operations, self.operation_times, self.operation_metadata)

    def _add_interval(self, row: IntervalRow, ids: List[int], times: List[float],
                      metadata: List[Tuple[int, Mapping[str, object]]]) -> None:
        category, name, start_us, end_us, worker, phase, meta = row
        if meta is not None:
            metadata.append((len(times) // 2, meta))
        intern = self.ids
        ids.extend((intern[category], intern[name], intern[worker], intern[phase]))
        times.extend((start_us, end_us))

    def add_events(self, category: str, intervals: Sequence[Tuple[str, float, float]],
                   worker: str, phase: str) -> None:
        """Add ``(name, start_us, end_us)`` events without metadata that share the other fields."""
        intern = self.ids
        category_id, worker_id, phase_id = intern[category], intern[worker], intern[phase]
        for name, start_us, end_us in intervals:
            self.events.extend((category_id, intern[name], worker_id, phase_id))
            self.event_times.extend((start_us, end_us))

    def add_marker(self, row: MarkerRow) -> None:
        kind, time_us, api_name, worker, phase = row
        intern = self.ids
        self.markers.extend((intern[kind], intern[_NO_API if api_name is None else api_name],
                             intern[worker], intern[phase]))
        self.marker_times.append(time_us)

    def add_api_call(self, category: str, api_name: str, start_us: float, end_us: float,
                     worker: str, phase: str, marker_kinds: Sequence[str]) -> None:
        """Add one API call's event, then one marker per kind at its end."""
        intern = self.ids
        name_id, worker_id, phase_id = intern[api_name], intern[worker], intern[phase]
        self.events.extend((intern[category], name_id, worker_id, phase_id))
        self.event_times.extend((start_us, end_us))
        for kind in marker_kinds:
            self.markers.extend((intern[kind], name_id, worker_id, phase_id))
            self.marker_times.append(end_us)

    # --------------------------------------------------------------- columns
    def columns(self) -> "ChunkColumns":
        """The buffered records as ``.tdbc`` columns (see :class:`ChunkColumns`)."""
        num_events = len(self.event_times) // 2
        num_intervals = num_events + len(self.operation_times) // 2
        num_markers = len(self.marker_times)
        # ``array`` converts a list of ints about three times faster than NumPy.
        intervals = np.frombuffer(array("I", self.events + self.operations), np.uintc
                                  ).reshape(num_intervals, 4).T
        markers = np.frombuffer(array("I", self.markers), np.uintc).reshape(num_markers, 4).T
        # The table lists strings in first-seen order over the columns taken
        # one after another: category, name, worker, phase, then kind,
        # api_name, worker, phase.
        column_major = np.concatenate([intervals.ravel(), markers.ravel()])
        provisional, first_seen = np.unique(column_major, return_index=True)
        order = provisional[np.argsort(first_seen)]
        values = list(self.ids)
        no_api = self.ids.get(_NO_API)
        if no_api is not None:
            order = order[order != no_api]
        renumber = np.empty(len(values), dtype=_ID)
        renumber[order] = np.arange(order.size, dtype=np.uint32)
        if no_api is not None:
            renumber[no_api] = _NO_STRING
        times = np.array(self.event_times + self.operation_times, dtype=np.float64)
        metadata = [[index, dict(meta)] for index, meta in self.event_metadata]
        metadata += [[num_events + index, dict(meta)] for index, meta in self.operation_metadata]
        return ChunkColumns(
            strings=[str(values[index]) for index in order.tolist()],
            num_events=num_events,
            intervals=renumber[intervals],
            times=times.reshape(num_intervals, 2).T.astype(_TIME, order="C"),
            marker_ids=renumber[markers],
            marker_time=np.array(self.marker_times, dtype=_TIME),
            metadata=metadata,
        )


@dataclass
class ChunkPayload:
    """Decoded contents of one chunk file."""

    events: List[Event] = field(default_factory=list)
    operations: List[Event] = field(default_factory=list)
    markers: List[OverheadMarker] = field(default_factory=list)

    def columns(self) -> "ChunkColumns":
        """The records as ``.tdbc`` columns."""
        return ChunkBuffer.from_payload(self).columns()


Chunk = Union[ChunkBuffer, ChunkPayload]


# ------------------------------------------------------------------- chunks
def chunk_filename(worker: str, seq: int) -> str:
    return f"{CHUNK_PREFIX}_{worker}_{seq:05d}{CHUNK_SUFFIX}"


@dataclass(eq=False)
class ChunkColumns:
    """One chunk's records as the columns of its ``.tdbc`` file.

    ``intervals`` holds the category / name / worker / phase string ids of
    the stack events followed by the operations, ``times`` their
    ``start_us`` / ``end_us``; ``marker_ids`` holds the kind / ``api_name``
    / worker / phase ids (``0xFFFFFFFF`` for ``api_name=None``).  Every id
    indexes ``strings``; ``metadata`` is the sparse ``[index, metadata]``
    table.  :meth:`trace_columns` is the analysis view; :meth:`payload`
    builds the record objects (once).
    """

    strings: List[str]
    num_events: int
    intervals: np.ndarray    #: (4, intervals) uint32
    times: np.ndarray        #: (2, intervals) float64
    marker_ids: np.ndarray   #: (4, markers) uint32
    marker_time: np.ndarray  #: (markers,) float64
    metadata: List[list]
    _payload: Optional[ChunkPayload] = field(default=None, repr=False, compare=False)

    def to_bytes(self) -> bytes:
        """The uncompressed chunk: preamble, JSON header, then the columns."""
        num_intervals = self.times.shape[1]
        header = json.dumps({
            "events": self.num_events,
            "operations": num_intervals - self.num_events,
            "markers": self.marker_time.size,
            "strings": self.strings,
            "metadata": self.metadata,
        }, separators=(",", ":")).encode("utf-8")
        return b"".join((
            _PREAMBLE.pack(_MAGIC, len(header)),
            header,
            self.intervals.tobytes(),
            self.times.tobytes(),
            self.marker_ids.tobytes(),
            self.marker_time.tobytes(),
        ))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ChunkColumns":
        """Parse :meth:`to_bytes` output; the columns are views of ``raw``."""
        magic, header_len = _PREAMBLE.unpack_from(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a TraceDB columnar chunk (magic {magic!r})")
        offset = _PREAMBLE.size + header_len
        header = json.loads(raw[_PREAMBLE.size:offset])
        num_intervals = header["events"] + header["operations"]
        num_markers = header["markers"]

        def take(dtype: str, rows: int, count: int) -> np.ndarray:
            nonlocal offset
            column = np.frombuffer(raw, dtype, rows * count, offset).reshape(rows, count)
            offset += column.nbytes
            return column

        intervals = take(_ID, 4, num_intervals)
        times = take(_TIME, 2, num_intervals)
        marker_ids = take(_ID, 4, num_markers)
        (marker_time,) = take(_TIME, 1, num_markers)
        if offset != len(raw):
            raise ValueError(f"columnar chunk has {len(raw) - offset} trailing bytes")
        return cls(header["strings"], header["events"], intervals, times, marker_ids,
                   marker_time, header["metadata"])

    def encode(self) -> bytes:
        """The compressed chunk file."""
        return zlib.compress(self.to_bytes(), _ZLIB_LEVEL)

    def meta(self, file: str, worker: str, seq: int) -> ChunkMeta:
        """The chunk's index statistics."""
        num_intervals = self.times.shape[1]
        starts = np.concatenate([self.times[0], self.marker_time])
        ends = np.concatenate([self.times[1], self.marker_time])
        phases = np.unique(np.concatenate([self.intervals[3], self.marker_ids[3]]))
        categories = np.unique(self.intervals[0, :self.num_events])
        return ChunkMeta(
            file=file,
            worker=worker,
            seq=seq,
            num_events=self.num_events,
            num_operations=num_intervals - self.num_events,
            num_markers=self.marker_time.size,
            start_us=float(starts.min()) if starts.size else None,
            end_us=float(ends.max()) if ends.size else None,
            phases=tuple(sorted({self.strings[index] for index in phases.tolist()})),
            categories=tuple(sorted({self.strings[index] for index in categories.tolist()})),
        )

    def payload(self) -> ChunkPayload:
        """The chunk's records as objects, built on first call."""
        if self._payload is None:
            self._payload = self._build_payload()
        return self._payload

    def _build_payload(self) -> ChunkPayload:
        # Index slot len(strings) decodes the api_name sentinel to None.
        lookup = np.array(self.strings + [None], dtype=object)
        sentinel = len(lookup) - 1
        category, name, worker, phase = lookup[self.intervals].tolist()
        start, end = self.times.tolist()
        kind, api_name, m_worker, m_phase = lookup[
            np.where(self.marker_ids == _NO_STRING, sentinel, self.marker_ids)].tolist()
        m_time = self.marker_time.tolist()
        metadata: List[Optional[Dict[str, object]]] = [None] * len(start)
        for index, meta in self.metadata:
            metadata[index] = meta
        intervals = list(map(Event, category, name, start, end, worker, phase, metadata))
        return ChunkPayload(
            events=intervals[:self.num_events],
            operations=intervals[self.num_events:],
            markers=list(map(OverheadMarker, kind, m_time, api_name, m_worker, m_phase)),
        )

    def trace_columns(self) -> TraceColumns:
        """The chunk as the analysis' :class:`~repro.profiler.columns.TraceColumns`."""
        ids = self.intervals.astype(np.int64)
        kind, api, worker, _ = self.marker_ids.astype(np.int64)
        api[self.marker_ids[1] == _NO_STRING] = NO_ID
        split = self.num_events
        start, end = self.times
        return TraceColumns(
            self.strings,
            events=IntervalColumns(ids[0, :split], ids[2, :split], start[:split], end[:split]),
            operations=IntervalColumns(ids[1, split:], ids[2, split:], start[split:], end[split:]),
            markers=MarkerColumns(kind, api, worker, self.marker_time),
        )


def encode_chunk(chunk: Chunk) -> bytes:
    """Encode one chunk's records as compressed columns (see the module docstring)."""
    return chunk.columns().encode()


def decode_columns(data: bytes) -> ChunkColumns:
    """Decode bytes produced by :func:`encode_chunk` into columns."""
    return ChunkColumns.from_bytes(zlib.decompress(data))


def decode_chunk(data: bytes) -> ChunkPayload:
    """Decode bytes produced by :func:`encode_chunk` into record objects."""
    return decode_columns(data).payload()


def write_chunk(path: Path, chunk: Chunk) -> None:
    path.write_bytes(encode_chunk(chunk))


def read_columns(path: Path) -> ChunkColumns:
    """Read one chunk file as columns; a legacy chunk is decoded, then interned."""
    if path.name.endswith(CHUNK_SUFFIX):
        return decode_columns(path.read_bytes())
    payload = read_chunk(path)
    columns = payload.columns()
    columns._payload = payload
    return columns


def read_chunk(path: Path) -> ChunkPayload:
    """Decode one chunk file: columnar, or a read-only legacy JSONL / JSON chunk."""
    name = path.name
    if name.endswith(CHUNK_SUFFIX):
        return decode_chunk(path.read_bytes())
    if name.endswith(".jsonl") or name.endswith(".jsonl.gz"):
        return _read_jsonl_chunk(path)
    # Legacy chunk: one JSON object holding flat record lists.
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return ChunkPayload(
        events=[Event.from_dict(d) for d in data.get("events", [])],
        operations=[Event.from_dict(d) for d in data.get("operations", [])],
        markers=[OverheadMarker.from_dict(d) for d in data.get("markers", [])],
    )


def _read_jsonl_chunk(path: Path) -> ChunkPayload:
    """Decode a ``tracedb-v1`` chunk: one JSON record per line, optionally gzipped."""
    payload = ChunkPayload()
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:  # type: ignore[operator]
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("t")
            if kind == "e":
                payload.events.append(Event.from_dict(record))
            elif kind == "o":
                payload.operations.append(Event.from_dict(record))
            elif kind == "m":
                payload.markers.append(OverheadMarker.from_dict(record))
            else:
                raise ValueError(f"unknown record type {kind!r} in {path}")
    return payload


def build_meta(file: str, worker: str, seq: int, chunk: Chunk) -> ChunkMeta:
    """Compute the index statistics for one chunk's records."""
    return chunk.columns().meta(file, worker, seq)


# -------------------------------------------------------------------- index
@dataclass
class WorkerEntry:
    """One worker's shard in the store index."""

    chunks: List[ChunkMeta] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)


def write_index(directory: Path, workers: Mapping[str, WorkerEntry]) -> None:
    """Atomically (re)write the store index."""
    index = {
        "format": STORE_FORMAT,
        "workers": {
            worker: {
                "chunks": [meta.to_dict() for meta in entry.chunks],
                "metadata": dict(entry.metadata),
            }
            for worker, entry in workers.items()
        },
    }
    path = directory / INDEX_FILE
    tmp = directory / (INDEX_FILE + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=2)
    os.replace(tmp, path)


def read_index(directory: Path) -> Dict[str, WorkerEntry]:
    """Read a store index, falling back to the legacy RL-Scope index format.

    Raises :class:`FileNotFoundError` when the directory holds neither, and
    :class:`ValueError` for an index format outside :data:`READABLE_FORMATS`.
    """
    index_path = directory / INDEX_FILE
    if index_path.exists():
        with open(index_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if raw.get("format") not in READABLE_FORMATS:
            raise ValueError(f"unsupported trace store format {raw.get('format')!r} "
                             f"in {index_path}")
        workers: Dict[str, WorkerEntry] = {}
        for worker, entry in raw.get("workers", {}).items():
            workers[worker] = WorkerEntry(
                chunks=[ChunkMeta.from_dict(m) for m in entry.get("chunks", [])],
                metadata=dict(entry.get("metadata", {})),
            )
        return workers

    legacy_path = directory / LEGACY_INDEX_FILE
    if legacy_path.exists():
        with open(legacy_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        workers = {}
        for worker, entry in raw.get("workers", {}).items():
            metas = [
                ChunkMeta(file=str(name), worker=worker, seq=seq, legacy=True)
                for seq, name in enumerate(entry.get("chunks", []))
            ]
            workers[worker] = WorkerEntry(chunks=metas, metadata=dict(entry.get("metadata", {})))
        return workers

    raise FileNotFoundError(f"no TraceDB or RL-Scope trace index found in {directory}")
