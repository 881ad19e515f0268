"""Chunk encoding from field rows, interned column by column: a test oracle.

A shard used to buffer each record as a field row and intern the rows'
strings only when the chunk was encoded, one column after another.  The
shipped :class:`repro.tracedb.format.ChunkBuffer` interns each string when
its record is added and renumbers the ids at encode time; this module keeps
the row path unchanged (:func:`columns_from_rows`, :func:`meta_from_rows`),
and both must give the same chunk bytes and index statistics
(``tests/test_api_call_chunks.py``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Sequence

import numpy as np

from repro.tracedb.format import (
    _ID,
    _NO_STRING,
    _TIME,
    _ZLIB_LEVEL,
    ChunkColumns,
    ChunkMeta,
    IntervalRow,
    MarkerRow,
)


@dataclass
class ChunkRows:
    """One chunk's records as field rows."""

    events: List[IntervalRow] = field(default_factory=list)
    operations: List[IntervalRow] = field(default_factory=list)
    markers: List[MarkerRow] = field(default_factory=list)


def _columns(rows: Sequence[tuple], width: int) -> List[List[object]]:
    """Transpose field rows into ``width`` columns."""
    # Not ``zip(*rows)``: that allocates one iterator per row.
    return [list(map(itemgetter(index), rows)) for index in range(width)]


def columns_from_rows(rows: ChunkRows) -> ChunkColumns:
    """Intern a chunk's field rows column by column."""
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
    return ChunkColumns(
        strings=[str(value) for value in table],
        num_events=len(rows.events),
        intervals=np.array(interval_ids, dtype=_ID).reshape(4, len(intervals)),
        times=np.array([start, end], dtype=_TIME).reshape(2, len(intervals)),
        marker_ids=np.array(marker_ids, dtype=_ID).reshape(4, len(rows.markers)),
        marker_time=np.array(time, dtype=_TIME),
        metadata=[[index, dict(meta)] for index, meta in enumerate(metadata)
                  if meta is not None],
    )


def encode_rows(rows: ChunkRows) -> bytes:
    """The chunk file of ``rows``."""
    return zlib.compress(columns_from_rows(rows).to_bytes(), _ZLIB_LEVEL)


def meta_from_rows(file: str, worker: str, seq: int, rows: ChunkRows) -> ChunkMeta:
    """The index statistics of ``rows``."""
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
