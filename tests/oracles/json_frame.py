"""The version-1 serving wire codec: a sorted-key JSON header per frame.

This is how :mod:`repro.serving.protocol` framed messages before its header
became a fixed binary struct: an 18-byte ``<4sBBIQ`` preamble (magic,
version 1, type, header length, payload length), a UTF-8 JSON header holding
every scalar field plus each array's dtype and shape, then the raw array
bytes.  Tests use it as the round-trip oracle for the binary codec: both must
decode a message to the same fields and the same array bytes.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.serving.protocol import (
    MAGIC,
    MSG_REPLY,
    MSG_REQUEST,
    STATUS_OK,
    STATUSES,
    EvalReply,
    EvalRequest,
    IncompleteFrame,
    ProtocolError,
)

V1_PROTOCOL_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sBBIQ")


def _pack(msg_type: int, header: Dict, arrays: List[np.ndarray]) -> bytes:
    payload = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    header = dict(header)
    header["arrays"] = [
        {"dtype": str(np.ascontiguousarray(a).dtype), "shape": list(a.shape)}
        for a in arrays
    ]
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER_STRUCT.pack(MAGIC, V1_PROTOCOL_VERSION, msg_type,
                               len(header_bytes), len(payload)) + header_bytes + payload


def _unpack_arrays(header: Dict, payload: bytes) -> List[np.ndarray]:
    arrays = []
    offset = 0
    for spec in header.get("arrays", []):
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(payload, dtype=dtype, count=count,
                                    offset=offset).reshape(shape).copy())
        offset += dtype.itemsize * count
    if offset != len(payload):
        raise ProtocolError(f"payload length mismatch: consumed {offset} of {len(payload)} bytes")
    return arrays


def encode_request(request: EvalRequest) -> bytes:
    features = np.asarray(request.features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ProtocolError(f"expected non-empty [rows, features] array, got shape {features.shape}")
    header = {
        "request_id": request.request_id,
        "client_id": request.client_id,
        "attempt": request.attempt,
        "send_us": request.send_us,
        "first_send_us": request.first_send_us,
        "deadline_us": request.deadline_us,
        "metadata": request.metadata,
    }
    if request.state_key is not None:
        header["state_key"] = request.state_key
    return _pack(MSG_REQUEST, header, [features])


def encode_reply(reply: EvalReply) -> bytes:
    if reply.status not in STATUSES:
        raise ProtocolError(f"unknown reply status {reply.status!r}")
    arrays: List[np.ndarray] = []
    if reply.status == STATUS_OK:
        if reply.priors is None or reply.values is None:
            raise ProtocolError("an OK reply must carry priors and values")
        arrays = [np.asarray(reply.priors, dtype=np.float32),
                  np.asarray(reply.values, dtype=np.float32)]
    header = {
        "request_id": reply.request_id,
        "client_id": reply.client_id,
        "status": reply.status,
        "queue_delay_us": reply.queue_delay_us,
        "completion_us": reply.completion_us,
        "replica": reply.replica,
        "detail": reply.detail,
    }
    return _pack(MSG_REPLY, header, arrays)


def decode_message(data: bytes) -> Tuple[Union[EvalRequest, EvalReply], int]:
    if len(data) < _HEADER_STRUCT.size:
        raise IncompleteFrame(_HEADER_STRUCT.size - len(data))
    magic, version, msg_type, header_len, payload_len = _HEADER_STRUCT.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != V1_PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    total = _HEADER_STRUCT.size + header_len + payload_len
    if len(data) < total:
        raise IncompleteFrame(total - len(data))
    header = json.loads(data[_HEADER_STRUCT.size:_HEADER_STRUCT.size + header_len].decode("utf-8"))
    arrays = _unpack_arrays(header, data[_HEADER_STRUCT.size + header_len:total])
    if msg_type == MSG_REQUEST:
        return EvalRequest(
            request_id=int(header["request_id"]),
            client_id=str(header["client_id"]),
            features=arrays[0],
            attempt=int(header["attempt"]),
            send_us=float(header["send_us"]),
            first_send_us=float(header["first_send_us"]),
            deadline_us=None if header["deadline_us"] is None else float(header["deadline_us"]),
            metadata=dict(header["metadata"]),
            state_key=(None if header.get("state_key") is None
                       else int(header["state_key"])),
        ), total
    if msg_type == MSG_REPLY:
        return EvalReply(
            request_id=int(header["request_id"]),
            client_id=str(header["client_id"]),
            status=str(header["status"]),
            priors=arrays[0] if arrays else None,
            values=arrays[1] if len(arrays) > 1 else None,
            queue_delay_us=float(header["queue_delay_us"]),
            completion_us=float(header["completion_us"]),
            replica=int(header["replica"]),
            detail=str(header["detail"]),
        ), total
    raise ProtocolError(f"unknown message type {msg_type}")
