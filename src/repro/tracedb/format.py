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
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
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


@dataclass
class ChunkRows:
    """One chunk's records as field rows: what a shard buffers and encodes."""

    events: List[IntervalRow] = field(default_factory=list)
    operations: List[IntervalRow] = field(default_factory=list)
    markers: List[MarkerRow] = field(default_factory=list)

    def to_rows(self) -> "ChunkRows":
        return self


@dataclass
class ChunkPayload:
    """Decoded contents of one chunk file."""

    events: List[Event] = field(default_factory=list)
    operations: List[Event] = field(default_factory=list)
    markers: List[OverheadMarker] = field(default_factory=list)

    def to_rows(self) -> ChunkRows:
        return ChunkRows(
            events=list(map(interval_row, self.events)),
            operations=list(map(interval_row, self.operations)),
            markers=list(map(marker_row, self.markers)),
        )


Chunk = Union[ChunkRows, ChunkPayload]


# ------------------------------------------------------------------- chunks
def chunk_filename(worker: str, seq: int) -> str:
    return f"{CHUNK_PREFIX}_{worker}_{seq:05d}{CHUNK_SUFFIX}"


def _columns(rows: Sequence[tuple], width: int) -> List[List[object]]:
    """Transpose field rows into ``width`` columns."""
    # Not ``zip(*rows)``: that allocates one iterator per row.
    return [list(map(itemgetter(index), rows)) for index in range(width)]


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

    @classmethod
    def from_rows(cls, rows: ChunkRows) -> "ChunkColumns":
        """Intern a chunk's field rows (see the module docstring)."""
        intervals = rows.events + rows.operations
        category, name, start, end, worker, phase, metadata = _columns(intervals, 7)
        kind, time, api_names, m_worker, m_phase = _columns(rows.markers, 5)
        table: Dict[object, int] = {}

        def intern(column: Sequence[object]) -> List[int]:
            for value in dict.fromkeys(column):
                table.setdefault(value, len(table))
            return list(map(table.__getitem__, column))

        interval_ids = [intern(category), intern(name), intern(worker), intern(phase)]
        kind_ids = intern(kind)
        intern([api_name for api_name in api_names if api_name is not None])
        api_ids = list(map({**table, None: _NO_STRING}.__getitem__, api_names))
        marker_ids = [kind_ids, api_ids, intern(m_worker), intern(m_phase)]
        return cls(
            strings=[str(value) for value in table],
            num_events=len(rows.events),
            intervals=np.array(interval_ids, dtype=_ID).reshape(4, len(intervals)),
            times=np.array([start, end], dtype=_TIME).reshape(2, len(intervals)),
            marker_ids=np.array(marker_ids, dtype=_ID).reshape(4, len(rows.markers)),
            marker_time=np.array(time, dtype=_TIME),
            metadata=[[index, dict(meta)] for index, meta in enumerate(metadata)
                      if meta is not None],
        )

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
    return zlib.compress(ChunkColumns.from_rows(chunk.to_rows()).to_bytes(), _ZLIB_LEVEL)


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
    columns = ChunkColumns.from_rows(payload.to_rows())
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
    rows = chunk.to_rows()
    intervals = rows.events + rows.operations
    times = list(map(itemgetter(1), rows.markers))
    starts = list(map(itemgetter(2), intervals)) + times
    ends = list(map(itemgetter(3), intervals)) + times
    phases = set(map(itemgetter(5), intervals)) | set(map(itemgetter(4), rows.markers))
    return ChunkMeta(
        file=file,
        worker=worker,
        seq=seq,
        num_events=len(rows.events),
        num_operations=len(rows.operations),
        num_markers=len(rows.markers),
        start_us=min(starts) if starts else None,
        end_us=max(ends) if ends else None,
        phases=tuple(sorted(phases)),
        categories=tuple(sorted(set(map(itemgetter(0), rows.events)))),
    )


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
