"""The binary serving wire codec against the JSON frame oracle.

Frames are version 2: a checksummed fixed preamble and one binary struct per
header (see :mod:`repro.serving.protocol`).  The version-1 JSON codec lives
on in ``tests/oracles/json_frame.py``; every randomized message must decode,
through the binary codec, to exactly the fields and array bytes its JSON
round trip decodes to.
"""

import copy
import math
import random
import struct
import zlib

import numpy as np
import pytest

from oracles import json_frame
from repro.serving import (
    PROTOCOL_VERSION,
    STATUS_OK,
    STATUSES,
    EvalReply,
    EvalRequest,
    IncompleteFrame,
    ProtocolError,
    decode_message,
    encode_reply,
    encode_request,
)
from repro.serving.protocol import peek_reply

FEATURES = 75
NUM_MOVES = 26
CLIENT_IDS = ("client_0003", "blient-017", "клиент-7", "客户端", "c ✓", "")
DETAILS = ("", "token bucket empty", "queue full", "échéance dépassée", "cache", "队列已满")
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 123.456)
STATE_KEYS = (None, 0, 2**63 - 1, -(2**63), 17)
DEADLINES = (None, 0.0, -0.0, 2_500.0, math.inf)


def _float(rng: random.Random) -> float:
    return rng.choice(SPECIAL_FLOATS) if rng.random() < 0.3 else rng.uniform(-1e6, 1e6)


def _rows(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    data = np.random.default_rng(rng.randrange(2**32)).normal(size=(rows, cols))
    data = data.astype(np.float32)
    for _ in range(rng.randint(0, 4)):
        data[rng.randrange(rows), rng.randrange(cols)] = rng.choice(SPECIAL_FLOATS)
    return data


def _metadata(rng: random.Random) -> dict:
    draw = rng.random()
    if draw < 0.2:
        return {}
    if draw < 0.5:
        return {"attempt": rng.randint(0, 3)}
    return {
        "attempt": rng.randint(0, 3),
        "shares": (rng.random(), rng.randint(0, 3), "é"),
        "nested": {"rows": [rng.random(), [1, (2.5, None)]], "ok": True},
        "by_index": {3: "three", 11: [rng.randint(0, 9)], -2: {"x": None}},
        "étiquette": "naïve",
    }


def random_request(rng: random.Random) -> EvalRequest:
    return EvalRequest(
        request_id=rng.choice((0, rng.randrange(2**40), 2**63 - 1)),
        client_id=rng.choice(CLIENT_IDS),
        features=_rows(rng, rng.randint(1, 4), rng.choice((1, FEATURES))),
        attempt=rng.randint(0, 5),
        send_us=_float(rng),
        first_send_us=_float(rng),
        deadline_us=rng.choice(DEADLINES),
        metadata=_metadata(rng),
        state_key=rng.choice(STATE_KEYS),
    )


def random_reply(rng: random.Random, status: str) -> EvalReply:
    rows = rng.randint(1, 4)
    ok = status == STATUS_OK
    return EvalReply(
        request_id=rng.randrange(2**40),
        client_id=rng.choice(CLIENT_IDS),
        status=status,
        priors=_rows(rng, rows, NUM_MOVES) if ok else None,
        values=_rows(rng, rows, 1).reshape(rows) if ok else None,
        queue_delay_us=_float(rng),
        completion_us=_float(rng),
        replica=rng.choice((-1, 0, 3)),
        detail=rng.choice(DETAILS),
    )


def random_message(seed: int):
    """Seeds cycle through two requests, then one reply of each status."""
    rng = random.Random(seed)
    kind = seed % (2 + len(STATUSES))
    return random_request(rng) if kind < 2 else random_reply(rng, STATUSES[kind - 2])


def fields(message) -> dict:
    """Every field, with floats by bit pattern and arrays by dtype/shape/bytes."""
    out = {"type": type(message).__name__}
    for name, value in vars(message).items():
        if isinstance(value, np.ndarray):
            value = ("array", value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = ("float", struct.pack("<d", value))
        out[name] = value
    return out


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_round_trip_matches_json_oracle(seed):
    message = random_message(seed)
    encode = encode_request if isinstance(message, EvalRequest) else encode_reply
    oracle_encode = (json_frame.encode_request if isinstance(message, EvalRequest)
                     else json_frame.encode_reply)
    frame = encode(message)
    decoded, consumed = decode_message(frame)
    expected, _ = json_frame.decode_message(oracle_encode(message))
    assert consumed == len(frame)
    assert fields(decoded) == fields(expected)
    # Deterministic bytes: the same message, or a deep copy of it, encodes
    # to the same frame.
    assert encode(message) == frame
    assert encode(copy.deepcopy(message)) == frame
    if isinstance(message, EvalReply):
        assert peek_reply(frame) == (message.client_id, message.status)


def test_random_messages_cover_every_shape():
    messages = [random_message(seed) for seed in SEEDS]
    requests = [m for m in messages if isinstance(m, EvalRequest)]
    replies = [m for m in messages if isinstance(m, EvalReply)]
    assert {r.status for r in replies} == set(STATUSES)
    deadlines = [r.deadline_us for r in requests]
    assert None in deadlines and any(d == 0.0 for d in deadlines if d is not None)
    keys = [r.state_key for r in requests]
    assert None in keys and 0 in keys and 2**63 - 1 in keys
    assert any(not r.client_id.isascii() for r in messages)
    assert any(not r.detail.isascii() for r in replies)
    assert any(3 in r.metadata.get("by_index", {}) for r in requests)
    assert any(r.features.shape[0] > 1 for r in requests)
    every_row = np.concatenate([r.features.ravel() for r in requests])
    assert np.isnan(every_row).any() and np.isinf(every_row).any()
    assert any(np.signbit(x) and x == 0.0 for x in every_row)


def test_absent_fields_are_distinct_from_zero():
    base = dict(request_id=1, client_id="c", features=np.ones((1, 3), np.float32))
    for deadline_us, state_key in ((None, None), (0.0, 0), (0.0, None), (None, 0)):
        decoded, _ = decode_message(encode_request(
            EvalRequest(deadline_us=deadline_us, state_key=state_key, **base)))
        assert decoded.deadline_us == deadline_us and decoded.state_key == state_key
        assert (decoded.deadline_us is None) == (deadline_us is None)
        assert (decoded.state_key is None) == (state_key is None)


@pytest.mark.parametrize("field_name, value", [
    ("request_id", 2**63), ("request_id", -(2**63) - 1), ("attempt", 2**31),
    ("state_key", 2**63), ("state_key", -(2**63) - 1),
])
def test_out_of_range_request_field_is_rejected_at_encode(field_name, value):
    request = EvalRequest(request_id=1, client_id="c",
                          features=np.ones((1, 3), np.float32))
    setattr(request, field_name, value)
    with pytest.raises(ProtocolError):
        encode_request(request)


@pytest.mark.parametrize("field_name, value", [
    ("request_id", 2**63), ("replica", 2**31), ("replica", -(2**31) - 1),
])
def test_out_of_range_reply_field_is_rejected_at_encode(field_name, value):
    reply = EvalReply(request_id=1, client_id="c", status="shed-queue")
    setattr(reply, field_name, value)
    with pytest.raises(ProtocolError):
        encode_reply(reply)


def test_version_one_frames_are_rejected():
    request = random_request(random.Random(1))
    with pytest.raises(ProtocolError, match="version"):
        decode_message(json_frame.encode_request(request))
    assert PROTOCOL_VERSION == 2


def test_every_prefix_is_incomplete():
    frame = encode_reply(random_reply(random.Random(2), STATUS_OK))
    for cut in range(len(frame)):
        with pytest.raises(IncompleteFrame):
            decode_message(frame[:cut])


def _reseal(frame: bytearray) -> bytes:
    """Recompute both checksums, so a mutation reaches the field decoders."""
    crc_at = struct.calcsize("<4sBBIQ")
    struct.pack_into("<II", frame, crc_at, zlib.crc32(frame[:crc_at]),
                     zlib.crc32(frame[crc_at + 8:]))
    return bytes(frame)


def test_checksum_valid_but_inconsistent_frames_raise_protocol_error():
    """Fields that disagree with their own lengths never escape as a crash."""
    rng = np.random.default_rng(0x5EA1)
    frames = [encode_request(random_request(random.Random(3))),
              encode_reply(random_reply(random.Random(4), STATUS_OK)),
              encode_reply(random_reply(random.Random(5), "shed-rate"))]
    outcomes = {"decoded": 0, "rejected": 0}
    for frame in frames:
        for _ in range(300):
            mutated = bytearray(frame)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(26, len(frame)))
                mutated[at] ^= int(rng.integers(1, 256))
            try:
                decode_message(_reseal(mutated))
                outcomes["decoded"] += 1
            except ProtocolError:
                outcomes["rejected"] += 1
    assert outcomes["rejected"] > 0 and outcomes["decoded"] > 0
