"""The serving event loop: arrivals, frames, timers — one heap, virtual time.

``run_serving`` drives an :class:`~repro.serving.server.InferenceServer`
with a :class:`~repro.serving.loadgen.LoadGenerator` the same way the PR 5
pool scheduler drives self-play workers: a single min-heap of timestamped
events, popped in ``(time, sequence)`` order so ties break deterministically
and the whole run is a pure function of the configuration and seeds.

Event kinds:

* ``arrive`` — the load generator emits an arrival; the chosen client opens
  a request and its frame goes on the wire.  The *next* arrival is pushed
  lazily, so a million-arrival trace costs O(1) heap space for arrivals.
* ``send`` — a request frame reaches the server.
  The server's admission verdict may produce immediate shed replies and/or
  served batches; every reply frame is scheduled back toward its client.
* ``timer`` — a partial-batch flush deadline fires.  Timers are scheduled
  optimistically after every server interaction and the server ignores the
  stale ones, so no timer bookkeeping is needed here.
* ``reply`` — a reply frame reaches its client, which may schedule a
  backoff retry (a future ``send``).

When the heap runs dry the server drains: held partial batches and the
blocked backlog serve out, and their replies are delivered directly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..faults.plan import FRAME_CORRUPT, FRAME_DROP
from .client import ServingClient
from .loadgen import LoadGenerator
from .protocol import STATUS_OK, peek_reply
from .server import InferenceServer

_ARRIVE = 0
_SEND = 1
_TIMER = 2
_REPLY = 3


@dataclass
class ServingRunResult:
    """Everything a report needs about one completed serving run."""

    server: InferenceServer
    loadgen: LoadGenerator
    horizon_us: float      #: arrival horizon (arrivals stop here; drain continues)
    end_us: float          #: virtual time of the last delivered reply
    events: int            #: heap events processed


def run_serving(server: InferenceServer, loadgen: LoadGenerator,
                horizon_us: float) -> ServingRunResult:
    """Run open-loop load against a server until the trace drains."""
    if horizon_us <= 0:
        raise ValueError("horizon_us must be positive")
    clients: Dict[str, ServingClient] = {
        client.client_id: client for client in loadgen.clients}
    heap: List[Tuple[float, int, int, object]] = []
    tiebreak = itertools.count()

    def push(time_us: float, kind: int, payload: object) -> None:
        heapq.heappush(heap, (time_us, next(tiebreak), kind, payload))

    def push_replies(replies: List[Tuple[bytes, float]]) -> None:
        for frame, at_us in replies:
            push(at_us, _REPLY, frame)

    # Each distinct deadline is scheduled once: without the dedupe set, every
    # send would re-push the same deadline and every fired duplicate would
    # re-push the next one, multiplying timers by the chain length.
    scheduled_timers: set = set()

    def push_timer() -> None:
        deadline = server.next_deadline_us()
        if deadline is not None and deadline not in scheduled_timers:
            scheduled_timers.add(deadline)
            push(deadline, _TIMER, None)

    arrivals = loadgen.arrivals(horizon_us)
    first = next(arrivals, None)
    if first is not None:
        push(first[0], _ARRIVE, first[1])

    # Replica fault times become timer events so crashes and recoveries
    # apply on schedule even while the server is idle.  Frame faults are
    # consumed below, at _SEND, where the wire actually carries a frame.
    injector = server.fault_injector
    if injector is not None:
        for fault_us in injector.plan.replica_event_times():
            if fault_us not in scheduled_timers:
                scheduled_timers.add(fault_us)
                push(fault_us, _TIMER, None)

    end_us = 0.0
    events = 0
    while heap:
        now_us, _, kind, payload = heapq.heappop(heap)
        end_us = max(end_us, now_us)
        events += 1
        if kind == _ARRIVE:
            client = payload
            assert isinstance(client, ServingClient)
            push(now_us, _SEND, client.new_request_frame(now_us))
            upcoming = next(arrivals, None)
            if upcoming is not None:
                push(upcoming[0], _ARRIVE, upcoming[1])
        elif kind == _SEND:
            assert isinstance(payload, bytes)
            frame = payload
            if injector is not None:
                fault = injector.next_frame_fault(now_us)
                if fault is not None and fault.kind == FRAME_DROP:
                    injector.record(now_us, FRAME_DROP,
                                    detail=f"bytes={len(frame)}")
                    continue  # the frame never reaches the server
                if fault is not None and fault.kind == FRAME_CORRUPT:
                    # Flip the version byte: the magic stays intact, so the
                    # server's stream rejects the frame cleanly and resyncs.
                    injector.record(now_us, FRAME_CORRUPT,
                                    detail=f"bytes={len(frame)}")
                    frame = frame[:4] + bytes([frame[4] ^ 0xFF]) + frame[5:]
            push_replies(server.receive(frame, now_us))
            push_timer()
        elif kind == _TIMER:
            scheduled_timers.discard(now_us)
            push_replies(server.on_timer(now_us))
            push_timer()
        else:  # _REPLY
            assert isinstance(payload, bytes)
            # Route by the header alone: the client decodes the frame once.
            client_id, _ = peek_reply(payload)
            retry = clients[client_id].deliver(payload, now_us)
            if retry is not None:
                resend_us, frame = retry
                push(resend_us, _SEND, frame)

    # Arrivals exhausted and every timer fired: serve out held partials and
    # the blocked backlog.  Drain replies are all OK (nothing sheds while
    # draining) so they cannot schedule retries.
    for frame, at_us in server.drain(end_us):
        client_id, status = peek_reply(frame)
        assert status == STATUS_OK
        end_us = max(end_us, at_us)
        events += 1
        clients[client_id].deliver(frame, at_us)
    loadgen.close()
    return ServingRunResult(server=server, loadgen=loadgen,
                            horizon_us=horizon_us, end_us=end_us, events=events)
