"""The ``tracedb-v1`` chunk writer: one ``json.dumps`` line per record.

This is how :mod:`repro.tracedb` wrote chunks before they became columnar:
each record is one JSON line, ``{"t": "e"|"o"|"m", **record.to_dict()}``,
through a gzip text wrapper with a pinned header mtime.  The store still
*reads* these chunks (``.jsonl`` / ``.jsonl.gz``), so tests use this writer
both as the round-trip oracle for the columnar codec and to build ``v1``
stores for the read-compatibility and ``repro-trace compact`` tests.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.tracedb.format import INDEX_FILE, ChunkPayload, build_meta

V1_STORE_FORMAT = "tracedb-v1"


def jsonl_chunk_filename(worker: str, seq: int, *, compress: bool = True) -> str:
    suffix = ".jsonl.gz" if compress else ".jsonl"
    return f"shard_{worker}_{seq:05d}{suffix}"


def write_jsonl_chunk(path: Path, payload: ChunkPayload, *, compress: bool = True) -> None:
    if compress:
        handle = io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")
    else:
        handle = open(path, "wt", encoding="utf-8")
    with handle:
        for event in payload.events:
            handle.write(json.dumps({"t": "e", **event.to_dict()}) + "\n")
        for op in payload.operations:
            handle.write(json.dumps({"t": "o", **op.to_dict()}) + "\n")
        for marker in payload.markers:
            handle.write(json.dumps({"t": "m", **marker.to_dict()}) + "\n")


def write_v1_store(
    directory: Path,
    shards: Mapping[str, Tuple[List[ChunkPayload], Dict[str, object]]],
    *,
    compress: bool = True,
) -> None:
    """Write a ``tracedb-v1`` store: per worker, its chunk payloads and metadata."""
    directory.mkdir(parents=True, exist_ok=True)
    workers = {}
    for worker, (payloads, metadata) in shards.items():
        metas = []
        for seq, payload in enumerate(payloads):
            name = jsonl_chunk_filename(worker, seq, compress=compress)
            write_jsonl_chunk(directory / name, payload, compress=compress)
            metas.append(build_meta(name, worker, seq, payload).to_dict())
        workers[worker] = {"chunks": metas, "metadata": dict(metadata)}
    index = {"format": V1_STORE_FORMAT, "workers": workers}
    (directory / INDEX_FILE).write_text(json.dumps(index, indent=2), encoding="utf-8")
