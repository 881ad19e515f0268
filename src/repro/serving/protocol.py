"""Wire protocol of the networked inference tier.

The serving split promotes :class:`~repro.rollout.inference.InferenceService`
from an in-process object to a client/server boundary: requests and replies
cross it as **framed byte messages**, exactly as they would cross a socket.
The simulation stays in virtual time — no real network I/O happens — but
every request is genuinely serialized by the client and deserialized by the
server (and vice versa for replies), so the protocol layer is exercised on
the hot path, message framing over a byte stream is testable with real
split/coalesced reads, and client and server can never share mutable state
by accident: a decode always builds fresh arrays and a fresh metadata dict.
That last property is load-bearing — ticket metadata is shared by reference
with the in-process service (see :meth:`InferenceService.submit`), so the
wire decode is what guarantees a retried request can never alias the
attribution of its previous attempt.

Frame layout, version 2 (little-endian, no padding)::

    magic         4s  b"RLSV"
    version       B   PROTOCOL_VERSION
    type          B   MSG_REQUEST | MSG_REPLY
    header_len    I   length of the header in bytes
    payload_len   Q   length of the array payload in bytes
    preamble_crc  I   CRC32 of the 18 bytes above
    body_crc      I   CRC32 of header + payload
    ---- header: one fixed struct per message type, then its strings,
         then the array section: count B, per array ndim B + ndim x dim I
    ---- payload: float32 C-order array bytes, concatenated in header order

Request header: ``request_id q, attempt i, send_us d, first_send_us d,
deadline_us d, state_key q, flags B, client_id length H, metadata length I``,
then the UTF-8 client id and the metadata as compact sorted-key JSON.  Flag
bit 0 marks a deadline and bit 1 a state key, so an absent field is told
apart from ``0.0`` / ``0``.  Reply header: ``request_id q, status B (index
into STATUSES), queue_delay_us d, completion_us d, replica i, client_id
length H, detail length I``, then the UTF-8 client id and detail.

The preamble CRC is checked before any declared length is trusted, so a
flipped length is rejected at once instead of stalling the stream on an
:class:`IncompleteFrame` that swallows the frames after it.  The body CRC
covers every other byte: one corrupted frame is rejected whole and can
never decode as a different valid message.

Requests carry a client id, a per-client request id, a retry attempt
counter, the client's send time, an optional absolute deadline and a block
of feature rows.  Replies carry a :data:`STATUS_OK` result (priors/values
rows plus queueing attribution) or a shed/error status the client can react
to (retry with backoff, or give up).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

MAGIC = b"RLSV"
PROTOCOL_VERSION = 2

MSG_REQUEST = 1
MSG_REPLY = 2

_PREAMBLE = struct.Struct("<4sBBIQ")
_CHECKSUMS = struct.Struct("<II")
_FIXED = struct.Struct("<4sBBIQII")  #: preamble + both checksums, read at once
_REQUEST = struct.Struct("<qidddqBHI")  #: request header fields, in docstring order
_REPLY = struct.Struct("<qBddiHI")  #: reply header fields, in docstring order
_HAS_DEADLINE = 1  #: request flag: deadline_us is set
_HAS_STATE_KEY = 2  #: request flag: state_key is set
_METADATA_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: What frames decode from: a caller's bytes or a stream's reassembly buffer.
_Buffer = Union[bytes, bytearray]

#: Sanity caps on the declared lengths, checked once the preamble checksum
#: holds: a frame that declares more than this is refused outright.
MAX_HEADER_BYTES = 1 << 20    # 1 MiB of header
MAX_PAYLOAD_BYTES = 1 << 28   # 256 MiB of array payload

#: Reply statuses.  Everything except OK is an overload signal the client
#: may retry; the status names the defence that fired.
STATUS_OK = "ok"                      #: served; priors/values attached
STATUS_SHED_RATE = "shed-rate"        #: per-client token bucket denied admission
STATUS_SHED_QUEUE = "shed-queue"      #: bounded ingress queue was full
STATUS_SHED_DEADLINE = "shed-deadline"  #: request expired in the ingress queue
STATUSES = (STATUS_OK, STATUS_SHED_RATE, STATUS_SHED_QUEUE, STATUS_SHED_DEADLINE)
SHED_STATUSES = (STATUS_SHED_RATE, STATUS_SHED_QUEUE, STATUS_SHED_DEADLINE)
_STATUS_INDEX = {status: index for index, status in enumerate(STATUSES)}


@dataclass
class EvalRequest:
    """One client -> server evaluation request."""

    request_id: int               #: unique per client (stable across retries)
    client_id: str
    features: np.ndarray          #: float32 [rows, feature_dim]
    attempt: int = 0              #: retry attempt (0 = first send)
    send_us: float = 0.0          #: client virtual clock at (this) send
    first_send_us: float = 0.0    #: client virtual clock at the first send
    deadline_us: Optional[float] = None  #: absolute; None = no deadline
    metadata: Dict = field(default_factory=dict)
    #: stable hash of the queried state (see ``Env.state_key``); lets the
    #: server answer repeats from its admission cache.  None = uncacheable.
    state_key: Optional[int] = None

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def key(self) -> Tuple[str, int]:
        """(client_id, request_id): the reply-routing key."""
        return (self.client_id, self.request_id)


@dataclass
class EvalReply:
    """One server -> client reply."""

    request_id: int
    client_id: str
    status: str
    priors: Optional[np.ndarray] = None   #: float32 [rows, num_moves] when OK
    values: Optional[np.ndarray] = None   #: float32 [rows] when OK
    queue_delay_us: float = 0.0           #: arrival -> batch-start delay
    completion_us: float = 0.0            #: virtual time the reply left the server
    replica: int = -1                     #: serving replica index (-1 when shed)
    detail: str = ""                      #: human-readable shed/error context

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        return self.status in SHED_STATUSES

    @property
    def key(self) -> Tuple[str, int]:
        return (self.client_id, self.request_id)


class ProtocolError(ValueError):
    """A malformed, truncated or version-incompatible frame."""


def _frame(msg_type: int, header: bytes, payload: bytes) -> bytes:
    preamble = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, msg_type,
                              len(header), len(payload))
    checksums = _CHECKSUMS.pack(zlib.crc32(preamble),
                                zlib.crc32(payload, zlib.crc32(header)))
    return b"".join((preamble, checksums, header, payload))


def _array_specs(arrays: Tuple[np.ndarray, ...]) -> bytes:
    """The header's array section: a count, then ``ndim`` + dims per array."""
    return bytes((len(arrays),)) + b"".join(
        struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape) for a in arrays)


def encode_request(request: EvalRequest) -> bytes:
    """Serialize a request into one wire frame."""
    features = np.asarray(request.features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ProtocolError(f"expected non-empty [rows, features] array, got shape {features.shape}")
    client_id = request.client_id.encode("utf-8")
    metadata = _METADATA_JSON.encode(request.metadata).encode("utf-8")
    deadline_us, state_key = request.deadline_us, request.state_key
    flags = ((0 if deadline_us is None else _HAS_DEADLINE)
             | (0 if state_key is None else _HAS_STATE_KEY))
    try:
        fixed = _REQUEST.pack(
            request.request_id, request.attempt, request.send_us,
            request.first_send_us, 0.0 if deadline_us is None else deadline_us,
            0 if state_key is None else state_key, flags,
            len(client_id), len(metadata))
        specs = _array_specs((features,))
    except struct.error as exc:
        raise ProtocolError(f"request field out of range: {exc}") from exc
    return _frame(MSG_REQUEST, b"".join((fixed, client_id, metadata, specs)),
                  features.tobytes())


def encode_reply(reply: EvalReply) -> bytes:
    """Serialize a reply into one wire frame."""
    status = _STATUS_INDEX.get(reply.status)
    if status is None:
        raise ProtocolError(f"unknown reply status {reply.status!r}")
    arrays: Tuple[np.ndarray, ...] = ()
    if reply.status == STATUS_OK:
        if reply.priors is None or reply.values is None:
            raise ProtocolError("an OK reply must carry priors and values")
        arrays = (np.asarray(reply.priors, dtype=np.float32),
                  np.asarray(reply.values, dtype=np.float32))
    client_id = reply.client_id.encode("utf-8")
    detail = reply.detail.encode("utf-8")
    try:
        fixed = _REPLY.pack(reply.request_id, status, reply.queue_delay_us,
                            reply.completion_us, reply.replica,
                            len(client_id), len(detail))
        specs = _array_specs(arrays)
    except struct.error as exc:
        raise ProtocolError(f"reply field out of range: {exc}") from exc
    return _frame(MSG_REPLY, b"".join((fixed, client_id, detail, specs)),
                  b"".join(a.tobytes() for a in arrays))


def _check_frame(data: _Buffer, offset: int) -> Tuple[int, int, int, int]:
    """Validate the frame at ``data[offset:]`` without decoding its fields.

    Returns ``(msg_type, header_start, payload_start, frame_end)`` as
    absolute offsets into ``data``.  The preamble checksum is verified before
    any declared length is trusted, and the body checksum before any field
    is read.
    """
    available = len(data) - offset
    if available < _FIXED.size:
        raise IncompleteFrame(_FIXED.size - available)
    (magic, version, msg_type, header_len, payload_len,
     preamble_crc, body_crc) = _FIXED.unpack_from(data, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if zlib.crc32(data[offset:offset + _PREAMBLE.size]) != preamble_crc:
        raise ProtocolError("preamble checksum mismatch")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {header_len} exceeds cap")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"declared payload length {payload_len} exceeds cap")
    header_start = offset + _FIXED.size
    payload_start = header_start + header_len
    end = payload_start + payload_len
    if len(data) < end:
        raise IncompleteFrame(end - len(data))
    if zlib.crc32(memoryview(data)[header_start:end]) != body_crc:
        raise ProtocolError("body checksum mismatch")
    return msg_type, header_start, payload_start, end


def _read_arrays(data: _Buffer, pos: int, payload_start: int,
                 end: int) -> List[np.ndarray]:
    """Decode the array section at ``pos`` and the payload it describes."""
    count = data[pos]
    pos += 1
    shapes = []
    for _ in range(count):
        ndim = data[pos]
        shapes.append(struct.unpack_from(f"<{ndim}I", data, pos + 1))
        pos += 1 + 4 * ndim
    if pos != payload_start:
        raise ProtocolError(f"header length mismatch: fields end at {pos}, "
                            f"header ends at {payload_start}")
    arrays = []
    for shape in shapes:
        size = math.prod(shape)
        if pos + 4 * size > end:
            raise ProtocolError("payload length mismatch: arrays overrun the payload")
        # .copy() detaches from the frame buffer: decoded arrays are fresh,
        # writable, and share no memory with the sender's arrays.
        arrays.append(np.frombuffer(data, np.float32, size, pos).reshape(shape).copy())
        pos += 4 * size
    if pos != end:
        raise ProtocolError(f"payload length mismatch: consumed {pos - payload_start} "
                            f"of {end - payload_start} bytes")
    return arrays


def _decode_request(data: _Buffer, start: int, payload_start: int,
                    end: int) -> EvalRequest:
    (request_id, attempt, send_us, first_send_us, deadline_us, state_key,
     flags, client_len, metadata_len) = _REQUEST.unpack_from(data, start)
    if flags & ~(_HAS_DEADLINE | _HAS_STATE_KEY):
        raise ProtocolError(f"unknown request flags {flags:#x}")
    pos = start + _REQUEST.size
    client_id = str(data[pos:pos + client_len], "utf-8")
    pos += client_len
    metadata = dict(json.loads(str(data[pos:pos + metadata_len], "utf-8")))
    arrays = _read_arrays(data, pos + metadata_len, payload_start, end)
    if len(arrays) != 1:
        raise ProtocolError(f"a request frame carries one array, got {len(arrays)}")
    return EvalRequest(
        request_id=request_id, client_id=client_id, features=arrays[0],
        attempt=attempt, send_us=send_us, first_send_us=first_send_us,
        deadline_us=deadline_us if flags & _HAS_DEADLINE else None,
        metadata=metadata,
        state_key=state_key if flags & _HAS_STATE_KEY else None)


def _reply_route(data: _Buffer, start: int) -> Tuple[Tuple, str, int]:
    """The reply's fixed fields, its client id and the offset past the id."""
    fields = _REPLY.unpack_from(data, start)
    if fields[1] >= len(STATUSES):
        raise ProtocolError(f"unknown reply status index {fields[1]}")
    pos = start + _REPLY.size
    client_len = fields[5]
    return fields, str(data[pos:pos + client_len], "utf-8"), pos + client_len


def _decode_reply(data: _Buffer, start: int, payload_start: int,
                  end: int) -> EvalReply:
    fields, client_id, pos = _reply_route(data, start)
    request_id, status_index, queue_delay_us, completion_us, replica, _, detail_len = fields
    status = STATUSES[status_index]
    detail = str(data[pos:pos + detail_len], "utf-8")
    arrays = _read_arrays(data, pos + detail_len, payload_start, end)
    expected = 2 if status == STATUS_OK else 0
    if len(arrays) != expected:
        raise ProtocolError(f"a {status} reply carries {expected} arrays, got {len(arrays)}")
    return EvalReply(
        request_id=request_id, client_id=client_id, status=status,
        priors=arrays[0] if arrays else None,
        values=arrays[1] if arrays else None,
        queue_delay_us=queue_delay_us, completion_us=completion_us,
        replica=replica, detail=detail)


_DECODERS = {MSG_REQUEST: _decode_request, MSG_REPLY: _decode_reply}


def _guarded(read, *args):
    """Run a field reader over a checksum-valid frame.

    Fields that disagree with their own lengths are malformed, never a
    crash: every such error becomes a :class:`ProtocolError`, past which
    stream readers resynchronize.
    """
    try:
        return read(*args)
    except ProtocolError:
        raise
    except (struct.error, ValueError, TypeError, IndexError) as exc:
        raise ProtocolError(f"bad frame content: {exc!r}") from exc


def _decode_at(data: _Buffer, offset: int) -> Tuple[Union[EvalRequest, EvalReply], int]:
    """Decode the frame at ``data[offset:]``; returns it and the offset past it."""
    msg_type, start, payload_start, end = _check_frame(data, offset)
    decode = _DECODERS.get(msg_type)
    if decode is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    return _guarded(decode, data, start, payload_start, end), end


def decode_message(data: bytes) -> Tuple[Union[EvalRequest, EvalReply], int]:
    """Decode one frame from the head of ``data``.

    Returns ``(message, bytes_consumed)``.  Raises :class:`ProtocolError` on
    a malformed frame and :class:`IncompleteFrame` when ``data`` holds only a
    prefix of a frame (a stream reader should wait for more bytes).
    """
    return _decode_at(data, 0)


def peek_reply(frame: bytes) -> Tuple[str, str]:
    """``(client_id, status)`` of the reply frame at the head of ``frame``.

    Validates the frame like :func:`decode_message` but reads only the
    routing fields, so an event loop can hand the frame to its client
    without decoding the arrays a second time.
    """
    msg_type, start, _, _ = _check_frame(frame, 0)
    if msg_type != MSG_REPLY:
        raise ProtocolError(f"expected a reply frame, got message type {msg_type}")
    fields, client_id, _ = _guarded(_reply_route, frame, start)
    return client_id, STATUSES[fields[1]]


class IncompleteFrame(Exception):
    """Raised by :func:`decode_message` when more bytes are needed."""

    def __init__(self, missing: int) -> None:
        super().__init__(f"frame incomplete: at least {missing} more bytes needed")
        self.missing = missing


class MessageStream:
    """Reassembles frames from an arbitrarily-chunked byte stream.

    A TCP connection delivers bytes, not messages: one ``recv`` may hold half
    a frame or three frames and a tail.  ``feed`` buffers incoming chunks and
    returns every complete message, in order, leaving any trailing partial
    frame buffered for the next feed.  Frames decode in place at their
    offset: a feed that starts on a frame boundary reads ``data`` itself,
    and only a trailing partial frame is copied into the buffer.

    A malformed frame (corrupt magic, bad version, checksum mismatch …)
    does not poison the stream: the reader counts it in ``corrupt_frames``,
    scans forward to the next occurrence of the magic bytes, and resumes
    decoding there.  Both checksums cover every byte of a frame, so one
    corrupted frame costs exactly that frame: it can neither decode as a
    different message nor make the reader wait on a corrupted length.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Corruption incidents skipped by the resynchronization scan: a
        #: frame whose magic survived but whose content is invalid counts
        #: one, and a contiguous run of magic-less garbage counts one (its
        #: bytes are indistinguishable from the tail of the frame whose
        #: header was destroyed).
        self.corrupt_frames = 0
        self._skipping = False  #: inside a garbage run already counted

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Union[EvalRequest, EvalReply]]:
        if self._buffer:
            self._buffer += data
            data = self._buffer
        messages: List[Union[EvalRequest, EvalReply]] = []
        offset = 0
        size = len(data)
        while offset < size:
            try:
                message, offset_after = _decode_at(data, offset)
            except IncompleteFrame:
                break
            except ProtocolError:
                at_magic = data[offset:offset + len(MAGIC)] == MAGIC
                if at_magic or not self._skipping:
                    self.corrupt_frames += 1
                self._skipping = True
                resync = data.find(MAGIC, offset + 1)
                if resync == -1:
                    # No further magic: drop everything but a possible
                    # partial-magic tail and wait for more bytes.
                    offset = max(offset + 1, size - (len(MAGIC) - 1))
                    break
                offset = resync
                continue
            self._skipping = False
            messages.append(message)
            offset = offset_after
        if data is self._buffer:
            del self._buffer[:offset]
        elif offset < size:
            self._buffer = bytearray(data[offset:])
        return messages
