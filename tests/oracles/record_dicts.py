"""Trace records rebuilt from their ``to_dict()`` form.

A record's ``to_dict()`` is what ``repro-trace query`` prints, and its JSON
round trip is what the record's fields and metadata mean once serialised:
times become floats, tuples lists, metadata keys strings.  The columnar
codec must decode every record to exactly what that round trip gives, so
:func:`json_round_trip` is its oracle.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.profiler.events import Event, OverheadMarker
from repro.tracedb.format import ChunkPayload


def event_from_dict(data: Mapping[str, object]) -> Event:
    metadata = data.get("metadata")
    return Event(
        category=str(data["category"]),
        name=str(data["name"]),
        start_us=float(data["start_us"]),
        end_us=float(data["end_us"]),
        worker=str(data["worker"]),
        phase=str(data["phase"]),
        metadata=None if metadata is None else dict(metadata),
    )


def marker_from_dict(data: Mapping[str, object]) -> OverheadMarker:
    api_name = data["api_name"]
    return OverheadMarker(
        kind=str(data["kind"]),
        time_us=float(data["time_us"]),
        api_name=None if api_name is None else str(api_name),
        worker=str(data["worker"]),
        phase=str(data["phase"]),
    )


def _through_json(record) -> dict:
    return json.loads(json.dumps(record.to_dict()))


def json_round_trip(payload: ChunkPayload) -> ChunkPayload:
    """``payload``'s records, each rebuilt from the JSON round trip of its ``to_dict()``."""
    return ChunkPayload(
        events=[event_from_dict(_through_json(event)) for event in payload.events],
        operations=[event_from_dict(_through_json(op)) for op in payload.operations],
        markers=[marker_from_dict(_through_json(marker)) for marker in payload.markers],
    )
