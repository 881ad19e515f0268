"""The columnar chunk codec against the JSONL chunk oracle.

Stores write ``.tdbc`` columnar chunks; ``tracedb-v1`` stores of per-record
JSONL chunks (written here by ``tests/oracles/jsonl_chunk.py``) must stay
readable and convert losslessly through ``repro-trace compact``.  Every
randomized payload must decode, through the columnar codec, to exactly the
records its JSONL round trip decodes to.
"""

import copy
import json
import random
import zlib

import pytest

from oracles.jsonl_chunk import V1_STORE_FORMAT, write_jsonl_chunk, write_v1_store
from repro.hw.costmodel import CostModelConfig
from repro.profiler import analyze_db
from repro.profiler.calibration import CalibrationResult
from repro.profiler.events import (
    CATEGORY_OPERATION,
    CPU_CATEGORIES,
    GPU_CATEGORIES,
    OVERHEAD_KINDS,
    Event,
    OverheadMarker,
)
from repro.tracedb import STORE_FORMAT, TraceDB
from repro.tracedb.cli import main as trace_main
from repro.tracedb.format import (
    CHUNK_SUFFIX,
    INDEX_FILE,
    ChunkPayload,
    decode_chunk,
    encode_chunk,
    read_chunk,
    write_chunk,
)

NAMES = ("step", "session_run", "naïve_kernel", "カーネル", "launch ✓", "", "cudaLaunchKernel")
PHASES = ("default", "data_collection", "sgd_updates", "фаза")
API_NAMES = ("cudaLaunchKernel", "cudaMemcpyAsync", "Ω-api")


def _timestamp(rng: random.Random, base: float):
    """An int or a float timestamp at or after ``base``."""
    if rng.random() < 0.4:
        return int(base) + rng.randint(0, 500)
    return base + rng.random() * 500.0


def _metadata(rng: random.Random):
    draw = rng.random()
    if draw < 0.5:
        return None
    if draw < 0.6:
        return {}
    return {
        "batch_size": rng.randint(1, 64),
        "share": (rng.random(), rng.randint(0, 3)),
        7: {"nested": [1, (2.5, "é")], 3: None},
        "rows": [rng.random() for _ in range(rng.randint(0, 3))],
    }


def _interval(rng: random.Random, worker: str, category: str) -> Event:
    start = _timestamp(rng, rng.random() * 1e4)
    end = _timestamp(rng, start)
    return Event(category=category, name=rng.choice(NAMES), start_us=start, end_us=end,
                 worker=worker, phase=rng.choice(PHASES), metadata=_metadata(rng))


def _marker(rng: random.Random, worker: str) -> OverheadMarker:
    api_name = rng.choice(API_NAMES) if rng.random() < 0.5 else None
    return OverheadMarker(kind=rng.choice(OVERHEAD_KINDS), time_us=_timestamp(rng, rng.random() * 1e4),
                          api_name=api_name, worker=worker, phase=rng.choice(PHASES))


def _section_size(rng: random.Random) -> int:
    return rng.choice((0, 1, rng.randint(2, 40)))


def random_payload(rng: random.Random, worker: str = "worker_0") -> ChunkPayload:
    categories = CPU_CATEGORIES + GPU_CATEGORIES
    return ChunkPayload(
        events=[_interval(rng, worker, rng.choice(categories)) for _ in range(_section_size(rng))],
        operations=[_interval(rng, worker, CATEGORY_OPERATION) for _ in range(_section_size(rng))],
        markers=[_marker(rng, worker) for _ in range(_section_size(rng))],
    )


def _records(payload: ChunkPayload):
    return [r.to_dict() for r in payload.events + payload.operations + payload.markers]


def _assert_float_times(payload: ChunkPayload) -> None:
    for record in payload.events + payload.operations:
        assert type(record.start_us) is float and type(record.end_us) is float
    for marker in payload.markers:
        assert type(marker.time_us) is float


# ------------------------------------------------------------------- codec
@pytest.mark.parametrize("seed", range(40))
def test_columnar_round_trip_matches_jsonl_oracle(seed, tmp_path):
    payload = random_payload(random.Random(seed))
    oracle_path = tmp_path / "chunk.jsonl.gz"
    write_jsonl_chunk(oracle_path, payload)
    oracle = read_chunk(oracle_path)

    encoded = encode_chunk(payload)
    columnar = decode_chunk(encoded)
    assert columnar == oracle
    assert _records(columnar) == _records(oracle)
    _assert_float_times(columnar)

    # Deterministic bytes: the same records encode identically, including
    # from an independent copy and through the file path.
    assert encode_chunk(copy.deepcopy(payload)) == encoded
    first, second = tmp_path / f"a{CHUNK_SUFFIX}", tmp_path / f"b{CHUNK_SUFFIX}"
    write_chunk(first, payload)
    write_chunk(second, copy.deepcopy(payload))
    assert first.read_bytes() == second.read_bytes() == encoded
    assert read_chunk(first) == oracle


def test_random_payloads_cover_every_shape():
    payloads = [random_payload(random.Random(seed)) for seed in range(40)]
    intervals = [r for p in payloads for r in p.events + p.operations]
    markers = [m for p in payloads for m in p.markers]
    sizes = {len(section) for p in payloads for section in (p.events, p.operations, p.markers)}
    assert {0, 1} <= sizes and max(sizes) > 1
    assert {type(r.start_us) for r in intervals} == {int, float}
    assert {type(m.time_us) for m in markers} == {int, float}
    assert any(r.metadata is None for r in intervals)
    assert any(r.metadata == {} for r in intervals)
    assert any(r.metadata for r in intervals)
    assert {m.api_name is None for m in markers} == {True, False}
    assert any(not r.name.isascii() for r in intervals)


def test_codec_covers_edge_shapes(tmp_path):
    """Empty sections, one-record chunks and an entirely empty chunk."""
    rng = random.Random(1234)
    event = _interval(rng, "w0", "Backend")
    op = _interval(rng, "w0", CATEGORY_OPERATION)
    marker = OverheadMarker(kind=OVERHEAD_KINDS[0], time_us=5, api_name=None)
    shapes = [
        ChunkPayload(),
        ChunkPayload(events=[event]),
        ChunkPayload(operations=[op]),
        ChunkPayload(markers=[marker]),
        ChunkPayload(events=[event], markers=[marker]),
    ]
    for index, payload in enumerate(shapes):
        path = tmp_path / f"{index}.jsonl"
        write_jsonl_chunk(path, payload, compress=False)
        decoded = decode_chunk(encode_chunk(payload))
        assert decoded == read_chunk(path)
        _assert_float_times(decoded)


def test_metadata_round_trips_like_json():
    event = Event(category="Backend", name="run", start_us=0.0, end_us=1.0,
                  metadata={"pair": (1, 2), 4: [("a", 5)]})
    (decoded,) = decode_chunk(encode_chunk(ChunkPayload(events=[event]))).events
    assert decoded.metadata == {"pair": [1, 2], "4": [["a", 5]]}
    assert decoded.metadata == json.loads(json.dumps(event.to_dict()))["metadata"]


def test_decode_rejects_a_foreign_payload():
    with pytest.raises(ValueError, match="magic"):
        decode_chunk(zlib.compress(b"XXXX\x00\x00\x00\x00"))


# ------------------------------------------------------------------- stores
def _random_shards(rng: random.Random):
    shards = {}
    for worker in ("worker_0", "wörker_1"):
        payloads = [random_payload(rng, worker) for _ in range(rng.randint(1, 3))]
        shards[worker] = (payloads, {"worker": worker, "seed": rng.randint(0, 99)})
    return shards


def _breakdowns(db: TraceDB):
    calibration = CalibrationResult.from_ground_truth(CostModelConfig())
    analysis = analyze_db(db, calibration=calibration)
    return (analysis.category_breakdown_us(), analysis.category_breakdown_us(corrected=False),
            analysis.resource_breakdown_us(), analysis.total_time_us())


@pytest.mark.parametrize("seed", range(6))
def test_v1_store_opens_and_compacts_to_v2(seed, tmp_path, capsys):
    v1_dir, v2_dir = tmp_path / "v1", tmp_path / "v2"
    write_v1_store(v1_dir, _random_shards(random.Random(seed)))
    v1 = TraceDB(str(v1_dir))
    assert all(meta.file.endswith(".jsonl.gz") for meta in v1.chunks())

    assert trace_main(["compact", str(v1_dir), "--out", str(v2_dir)]) == 0
    assert "compacted" in capsys.readouterr().out
    index = json.loads((v2_dir / INDEX_FILE).read_text(encoding="utf-8"))
    assert index["format"] == STORE_FORMAT != V1_STORE_FORMAT
    v2 = TraceDB(str(v2_dir))
    assert all(meta.file.endswith(CHUNK_SUFFIX) for meta in v2.chunks())

    assert v2.workers() == v1.workers()
    for worker in v1.workers():
        assert v2.read_worker(worker) == v1.read_worker(worker)
        assert v2.metadata(worker) == v1.metadata(worker)
    assert _breakdowns(v2) == _breakdowns(v1)


def test_uncompressed_v1_chunks_still_read(tmp_path):
    shards = _random_shards(random.Random(99))
    write_v1_store(tmp_path / "gz", shards)
    write_v1_store(tmp_path / "plain", shards, compress=False)
    gz, plain = TraceDB(str(tmp_path / "gz")), TraceDB(str(tmp_path / "plain"))
    assert all(meta.file.endswith(".jsonl") for meta in plain.chunks())
    assert plain.read_all() == gz.read_all()


def test_unknown_index_format_is_rejected(tmp_path):
    (tmp_path / INDEX_FILE).write_text(json.dumps({"format": "tracedb-v9", "workers": {}}),
                                       encoding="utf-8")
    with pytest.raises(ValueError, match="tracedb-v9"):
        TraceDB(str(tmp_path))
    with pytest.raises(SystemExit, match="tracedb-v9"):
        trace_main(["summarize", str(tmp_path)])


def test_compact_has_no_compression_knob(tmp_path, capsys):
    with pytest.raises(SystemExit):
        trace_main(["compact", str(tmp_path), "--out", str(tmp_path / "o"), "--no-compress"])
    assert "unrecognized arguments: --no-compress" in capsys.readouterr().err
