"""Serving clients: timeouts, capped exponential-backoff retry, accounting.

A :class:`ServingClient` is one remote caller of the inference tier.  It
builds request frames (fresh feature rows and a **fresh metadata dict** per
attempt — the aliasing discipline the wire boundary enforces), decodes reply
frames, and reacts to overload: a shed reply is retried after a capped
exponential backoff until :class:`RetryPolicy.max_attempts` is exhausted,
and an OK reply that lands after the request's deadline is counted as a
timeout miss (delivered too late to be goodput).

Clients are deliberately lightweight — a load generator drives thousands of
them — and fully deterministic: each owns a seeded RNG for its feature rows,
and backoff is a pure function of the attempt number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .protocol import (
    EvalReply,
    EvalRequest,
    MessageStream,
    encode_request,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for shed replies.

    Attempt ``k`` (0-based retry index) waits ``base_backoff_us *
    multiplier**k``, clamped to ``cap_us``.  ``max_attempts`` counts *sends*:
    with the default 4, a request is sent at most once plus three retries.

    ``jitter="decorrelated"`` replaces the deterministic ladder with
    decorrelated jitter (Amazon Architecture-blog style): each wait is drawn
    uniformly from ``[base, 3 * previous_wait]`` and capped, using a
    dedicated per-client seeded RNG — so a fleet of clients shed by the same
    fault stops retrying in lock-step and stops re-spiking the ingress
    window, while any single client's schedule stays a pure function of its
    seed.  Off by default: ``jitter="none"`` is bit-identical to the
    pre-jitter policy.
    """

    max_attempts: int = 4
    base_backoff_us: float = 100.0
    multiplier: float = 2.0
    cap_us: float = 2_000.0
    jitter: str = "none"   #: "none" | "decorrelated"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must allow at least the first send")
        if self.base_backoff_us < 0 or self.cap_us < 0 or self.multiplier < 1.0:
            raise ValueError("backoff parameters must be non-negative (multiplier >= 1)")
        if self.jitter not in ("none", "decorrelated"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}; "
                             "expected 'none' or 'decorrelated'")

    def backoff_us(self, retry_index: int) -> float:
        """Virtual-time wait before retry number ``retry_index`` (0-based)."""
        return min(self.base_backoff_us * self.multiplier ** retry_index, self.cap_us)

    def jittered_backoff_us(self, prev_backoff_us: float,
                            rng: np.random.Generator) -> float:
        """One decorrelated-jitter wait following ``prev_backoff_us``."""
        base = self.base_backoff_us
        high = max(base, 3.0 * prev_backoff_us)
        return min(self.cap_us, float(rng.uniform(base, high)))


#: A retry policy that never retries (the no-defence baseline).
NO_RETRY = RetryPolicy(max_attempts=1)

#: Seed base of the per-key feature generators (see :func:`key_features`).
_KEY_FEATURE_SEED = 0x5EED_CAFE

#: Seed offset of the per-client backoff-jitter RNG: a dedicated stream, so
#: arming jitter never perturbs the feature/key draws (and vice versa).
_JITTER_SEED = 0x0FF5_E7


def key_features(state_key: int, rows: int, feature_dim: int) -> np.ndarray:
    """The canonical feature rows of one state key.

    A pure function of ``(state_key, rows, feature_dim)`` — every client
    that queries a key sends these exact bytes, which is what makes the
    key a truthful cache identity: equal keys imply equal features imply
    equal (priors, values) under any fixed weight version.
    """
    rng = np.random.default_rng(_KEY_FEATURE_SEED + state_key)
    return rng.normal(size=(rows, feature_dim)).astype(np.float32)


@dataclass
class ClientStats:
    """Per-client request accounting (aggregated across clients by slo.py)."""

    requests: int = 0        #: distinct requests issued (retries not counted)
    sends: int = 0           #: frames sent (requests + retries)
    completed: int = 0       #: OK replies received
    on_time: int = 0         #: OK replies within the request deadline
    late: int = 0            #: OK replies after the deadline (timeout misses)
    retries: int = 0         #: resends triggered by shed replies
    gave_up: int = 0         #: requests abandoned after max_attempts
    shed_replies: Dict[str, int] = field(default_factory=dict)  #: by status
    latency_us: List[float] = field(default_factory=list)  #: first send -> OK reply
    queue_delay_us: List[float] = field(default_factory=list)  #: server-reported


class _Pending:
    """One request awaiting its reply (survives across retries)."""

    __slots__ = ("features", "first_send_us", "deadline_us", "attempts",
                 "state_key", "prev_backoff_us")

    def __init__(self, features: np.ndarray, first_send_us: float,
                 deadline_us: Optional[float],
                 state_key: Optional[int] = None) -> None:
        self.features = features
        self.first_send_us = first_send_us
        self.deadline_us = deadline_us
        self.attempts = 1  #: sends so far
        self.state_key = state_key  #: carried verbatim across retries
        self.prev_backoff_us = 0.0  #: last wait (decorrelated-jitter state)

    def request(self, client_id: str, request_id: int, send_us: float) -> EvalRequest:
        return EvalRequest(
            request_id=request_id, client_id=client_id, features=self.features,
            attempt=self.attempts - 1, send_us=send_us,
            first_send_us=self.first_send_us, deadline_us=self.deadline_us,
            # A fresh dict per attempt: tagging one attempt can never alias
            # another (see InferenceService.submit's sharing contract).
            metadata={"attempt": self.attempts - 1},
            state_key=self.state_key)


class ServingClient:
    """One synthetic remote caller of an :class:`~repro.serving.server.InferenceServer`."""

    def __init__(self, client_id: str, *, feature_dim: int,
                 rows_per_request: int = 1,
                 retry: RetryPolicy = RetryPolicy(),
                 request_deadline_us: Optional[float] = None,
                 key_space: Optional[int] = None,
                 seed: int = 0) -> None:
        """``key_space`` switches the client from fresh random feature rows
        per request to a keyed workload: each request draws a state key
        uniformly from ``range(key_space)`` and derives its feature rows
        *from the key alone* (a per-key seeded generator, identical across
        clients), so two requests with one key are bitwise-identical — the
        contract the server's admission cache requires.  Smaller spaces mean
        hotter repeats.  ``None`` (default) keeps the uncacheable stream.
        """
        if feature_dim <= 0 or rows_per_request <= 0:
            raise ValueError("feature_dim and rows_per_request must be positive")
        if key_space is not None and key_space <= 0:
            raise ValueError("key_space must be positive (or None for keyless rows)")
        self.client_id = client_id
        self.feature_dim = feature_dim
        self.rows_per_request = rows_per_request
        self.retry = retry
        self.request_deadline_us = request_deadline_us
        self.key_space = key_space
        self.stats = ClientStats()
        self._rng = np.random.default_rng(seed)
        # Jitter draws come from their own stream so the request features
        # stay bit-identical whether or not jitter is armed.
        self._backoff_rng = (np.random.default_rng(_JITTER_SEED + seed)
                             if retry.jitter != "none" else None)
        self._stream = MessageStream()
        self._pending: Dict[int, _Pending] = {}
        self._next_request_id = 0

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def new_request_frame(self, now_us: float) -> bytes:
        """Open a new request at ``now_us``; returns its wire frame."""
        request_id = self._next_request_id
        self._next_request_id += 1
        state_key: Optional[int] = None
        if self.key_space is not None:
            state_key = int(self._rng.integers(self.key_space))
            features = key_features(state_key, self.rows_per_request,
                                    self.feature_dim)
        else:
            features = self._rng.normal(
                size=(self.rows_per_request, self.feature_dim)).astype(np.float32)
        deadline = (None if self.request_deadline_us is None
                    else now_us + self.request_deadline_us)
        pending = _Pending(features, now_us, deadline, state_key)
        self._pending[request_id] = pending
        self.stats.requests += 1
        self.stats.sends += 1
        return encode_request(pending.request(self.client_id, request_id, now_us))

    def deliver(self, data: bytes, now_us: float) -> Optional[Tuple[float, bytes]]:
        """Feed reply bytes arriving at ``now_us``.

        Returns ``(resend_time_us, request_frame)`` when a shed reply
        triggers a retry, else ``None``.  At most one retry can result
        because the event loop delivers one reply frame per call (the stream
        still reassembles, so chunked delivery is tolerated).
        """
        resend: Optional[Tuple[float, bytes]] = None
        for message in self._stream.feed(data):
            if not isinstance(message, EvalReply):
                raise ValueError("clients accept reply frames only")
            action = self._on_reply(message, now_us)
            if action is not None:
                assert resend is None, "one reply frame per deliver call"
                resend = action
        return resend

    def _on_reply(self, reply: EvalReply, now_us: float
                  ) -> Optional[Tuple[float, bytes]]:
        pending = self._pending.get(reply.request_id)
        if pending is None:
            raise ValueError(f"reply for unknown request {reply.key}")
        if reply.ok:
            del self._pending[reply.request_id]
            self.stats.completed += 1
            self.stats.latency_us.append(now_us - pending.first_send_us)
            self.stats.queue_delay_us.append(reply.queue_delay_us)
            if pending.deadline_us is not None and now_us > pending.deadline_us:
                self.stats.late += 1
            else:
                self.stats.on_time += 1
            return None
        self.stats.shed_replies[reply.status] = (
            self.stats.shed_replies.get(reply.status, 0) + 1)
        if pending.attempts >= self.retry.max_attempts:
            del self._pending[reply.request_id]
            self.stats.gave_up += 1
            return None
        if self._backoff_rng is not None:
            backoff = self.retry.jittered_backoff_us(pending.prev_backoff_us,
                                                     self._backoff_rng)
        else:
            backoff = self.retry.backoff_us(pending.attempts - 1)
        pending.prev_backoff_us = backoff
        resend_us = now_us + backoff
        if pending.deadline_us is not None and resend_us > pending.deadline_us:
            # The retry could not land inside the deadline anyway.
            del self._pending[reply.request_id]
            self.stats.gave_up += 1
            return None
        pending.attempts += 1
        self.stats.retries += 1
        self.stats.sends += 1
        frame = encode_request(pending.request(self.client_id, reply.request_id,
                                               resend_us))
        return resend_us, frame

    def close(self) -> None:
        """Abandon whatever is still outstanding (end of run)."""
        self.stats.gave_up += len(self._pending)
        self._pending.clear()
