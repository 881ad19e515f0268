"""Virtual-time inference server: admission control, bounded ingress, shedding.

:class:`InferenceServer` is the serving tier between remote clients and the
sharded :class:`~repro.rollout.inference.InferenceService`.  It consumes
framed :class:`~repro.serving.protocol.EvalRequest` messages and defends the
replica pool with three mechanisms a production inference frontend needs and
the in-process pool never did:

* **Per-client admission control** — a token bucket per client id
  (``rate_limit_per_sec`` requests sustained, ``rate_burst`` burst).  A
  denied request is answered immediately with :data:`STATUS_SHED_RATE`.
* **A bounded ingress queue** — at most ``queue_capacity`` admitted
  requests may be *incomplete* (waiting for a batch slot or executing on a
  replica).  The bound is a concurrency window, not just a buffer size: a
  full batch dispatched onto a busy replica's horizon still occupies its
  slots until its completion time, so backlog can never hide on the replica
  queue — overload always surfaces at admission, where the configurable
  policy decides who loses:

  - :data:`OVERLOAD_BLOCK` — backpressure: the request waits *outside* the
    queue (its latency grows, nothing is dropped);
  - :data:`OVERLOAD_SHED_NEWEST` — the arriving request is dropped;
  - :data:`OVERLOAD_SHED_OLDEST` — the oldest queued request is dropped to
    admit the new one (fresh work is worth more than stale work);
  - :data:`OVERLOAD_DEADLINE_DROP` — queued requests whose deadline already
    passed are purged first; only if none expired does the arrival shed.

* **Batched serving on the replica pool** — admitted requests enter the
  *service's* arrival-order queue and depart under the PR 3 flush policies
  (full batches serve immediately; under ``timeout`` a partial batch departs
  at ``first arrival + flush_timeout_us``), start at ``max(departure,
  replica free)`` under the PR 4 routing policy, and complete on the replica
  horizon.  With admission disabled (``rate_limit_per_sec=None``) and the
  queue unbounded (``queue_capacity=None``) the server adds **zero**
  perturbation: the underlying service sees exactly the submissions and
  serve calls the PR 4 scheduler idiom would issue, so its
  :class:`~repro.rollout.inference.InferenceStats` reproduce exactly.

Everything runs in virtual time under seed control.  The server's clock is a
**cursor**: the event loop seeks it to each event's virtual time, batches
execute on it (sampling durations from the gateway's cost model RNG), and
replica horizons carry the serialization — so the whole tier is
deterministic: same seed + same config ⇒ identical decision log, identical
stats, identical replies.

Every externally visible choice the server makes is appended to
:attr:`InferenceServer.decision_log` — the reproducibility artifact the
determinism bar compares byte-for-byte.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend.graph import GraphEngine
from ..cuda.runtime import CudaRuntime
from ..hw.clock import VirtualClock
from ..hw.costmodel import CostModel, CostModelConfig
from ..hw.gpu import GPUDevice
from ..faults.plan import FaultInjector, FaultPlan
from ..rollout.inference import (
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
    InferenceService,
    InferenceTicket,
    ROUTING_ROUND_ROBIN,
    RoutingPolicy,
)
from ..rollout.evalcache import EvalCache
from ..system import System
from .protocol import (
    STATUS_OK,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    STATUS_SHED_RATE,
    EvalReply,
    EvalRequest,
    MessageStream,
    encode_reply,
)

#: Overload policies for the bounded ingress queue.
OVERLOAD_BLOCK = "block"
OVERLOAD_SHED_NEWEST = "shed-newest"
OVERLOAD_SHED_OLDEST = "shed-oldest"
OVERLOAD_DEADLINE_DROP = "deadline-drop"
OVERLOAD_POLICIES = (OVERLOAD_BLOCK, OVERLOAD_SHED_NEWEST,
                     OVERLOAD_SHED_OLDEST, OVERLOAD_DEADLINE_DROP)


class _CursorClock(VirtualClock):
    """A virtual clock the server event loop can *seek*.

    The gateway executes every batch, so after serving at event time ``t``
    its clock sits at that batch's end — possibly past the next arrival.
    Real timelines live on the replica horizons and in per-request
    timestamps; the gateway clock is only the cursor batches are executed
    against, so seeking it back to the next event's time is safe and is what
    lets batches on different replicas overlap instead of serializing
    through one host clock.
    """

    __slots__ = ()

    def seek(self, time_us: float) -> None:
        self._now_us = float(time_us)


class TokenBucket:
    """Token-bucket rate limiter in virtual time.

    Sustains ``rate_per_sec`` admissions per virtual second with bursts of up
    to ``burst`` back-to-back requests.  ``rate_per_sec=None`` disables
    limiting (every request admitted).
    """

    def __init__(self, rate_per_sec: Optional[float], burst: float = 1.0) -> None:
        if rate_per_sec is not None and rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive (or None to disable)")
        if burst < 1.0:
            raise ValueError("burst must allow at least one request")
        self.rate_per_sec = rate_per_sec
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_us = 0.0
        self._base_rate = rate_per_sec  #: configured rate before degraded scaling

    def rescale(self, scale: float) -> None:
        """Scale the sustained rate to ``scale`` of the configured rate.

        Degraded-mode hook: tokens already accrued are kept (the bucket only
        refills more slowly), and ``scale=1.0`` restores the configured rate
        exactly.  A no-op for unlimited buckets.
        """
        if self._base_rate is None:
            return
        self.rate_per_sec = self._base_rate * scale

    def admit(self, now_us: float) -> bool:
        if self.rate_per_sec is None:
            return True
        elapsed_us = max(now_us - self._last_us, 0.0)
        self._last_us = max(now_us, self._last_us)
        self.tokens = min(self.burst, self.tokens + elapsed_us * self.rate_per_sec / 1e6)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class ServerStats:
    """Counters describing one server run (admission + queueing decisions)."""

    arrivals: int = 0          #: request frames received (retries included)
    admitted: int = 0          #: requests that entered the ingress queue
    served: int = 0            #: OK replies produced
    shed_rate: int = 0         #: denied by the per-client token bucket
    shed_queue: int = 0        #: dropped because the ingress queue was full
    shed_deadline: int = 0     #: purged from the queue past their deadline
    blocked: int = 0           #: arrivals parked outside a full queue (block policy)
    block_time_us: float = 0.0  #: total virtual time spent parked
    serve_calls: int = 0       #: serve_queued invocations that issued calls
    timeout_serves: int = 0    #: serves triggered by a partial-batch deadline
    peak_queue_tickets: int = 0  #: high-water mark of the ingress queue
    peak_backlog: int = 0      #: high-water mark of the blocked backlog
    rows_served: int = 0       #: feature rows in batch-served OK replies
    cache_hits: int = 0        #: OK replies answered at admission from the cache
    cache_rows: int = 0        #: feature rows in cache-hit replies
    cache_evictions: int = 0   #: admission-cache LRU evictions
    corrupt_frames: int = 0    #: malformed wire frames skipped by stream resync
    degraded_entries: int = 0  #: transitions into degraded (reduced-capacity) mode

    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_queue + self.shed_deadline

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def cache_hit_fraction(self) -> float:
        return self.cache_hits / self.arrivals if self.arrivals else 0.0


class _Inflight:
    """Book-keeping for one admitted request awaiting its batch."""

    __slots__ = ("request", "ticket", "admitted_us", "arrived_us")

    def __init__(self, request: EvalRequest, ticket: InferenceTicket,
                 admitted_us: float, arrived_us: float) -> None:
        self.request = request
        self.ticket = ticket
        self.admitted_us = admitted_us  #: when it entered the service queue
        self.arrived_us = arrived_us    #: when its frame reached the server


class InferenceServer:
    """Message-based serving tier over a sharded :class:`InferenceService`.

    All requests are multiplexed through one *gateway* client of the
    underlying service (the frontend process); per-remote-client accounting
    happens here, keyed by the wire ``client_id``.  Interactions return
    ``(reply_frame_bytes, delivery_time_us)`` pairs: shed replies deliver at
    the event's own time, served replies at their batch's completion time.
    """

    def __init__(self, network, *,
                 max_batch: int = 8,
                 queue_capacity: Optional[int] = 64,
                 overload: str = OVERLOAD_SHED_NEWEST,
                 rate_limit_per_sec: Optional[float] = None,
                 rate_burst: float = 4.0,
                 flush_policy: str = FLUSH_TIMEOUT,
                 flush_timeout_us: Optional[float] = 200.0,
                 num_replicas: int = 1,
                 routing: Union[str, RoutingPolicy] = ROUTING_ROUND_ROBIN,
                 cost_config: Optional[CostModelConfig] = None,
                 seed: int = 0,
                 name: str = "inference_server",
                 keep_decision_log: bool = True,
                 cache_capacity: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 degraded_admission: bool = True) -> None:
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(f"unknown overload policy {overload!r}; "
                             f"expected one of {OVERLOAD_POLICIES}")
        if queue_capacity is not None and queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive (or None for unbounded)")
        if flush_policy not in FLUSH_POLICIES:
            raise ValueError(f"unknown flush policy {flush_policy!r}; "
                             f"expected one of {FLUSH_POLICIES}")
        if flush_policy != FLUSH_TIMEOUT:
            flush_timeout_us = None
        elif flush_timeout_us is None or flush_timeout_us < 0:
            raise ValueError("the timeout flush policy requires a non-negative flush_timeout_us")
        self.name = name
        self.overload = overload
        self.queue_capacity = queue_capacity
        self.rate_limit_per_sec = rate_limit_per_sec
        self.rate_burst = rate_burst
        self.flush_policy = flush_policy
        self.flush_timeout_us = flush_timeout_us
        # The gateway: the frontend's own "process" — a cursor clock, its own
        # cost-model RNG (samples batch durations) and engine.  Mirrors
        # System.create, with the seekable clock swapped in.
        cost_model = CostModel(cost_config, seed=seed + 7777)
        #: the serving tier's primary GPU (replica 0); further replicas get
        #: their own devices inside the service, exactly as in PR 4.
        self.device = GPUDevice(cost_model=cost_model)
        self.service = InferenceService(
            network, max_batch=max_batch, name=f"{name}/service",
            num_replicas=num_replicas, routing=routing,
            primary_device=self.device, cost_config=cost_config, seed=seed)
        clock = _CursorClock()
        cuda = CudaRuntime(clock, cost_model, self.device, worker=f"{name}/gateway")
        self._gateway_system = System(clock=clock, cost_model=cost_model,
                                      device=self.device, cuda=cuda,
                                      worker=f"{name}/gateway")
        self._clock = clock
        engine = GraphEngine(self._gateway_system, flavor="tensorflow")
        self.gateway = self.service.connect(self._gateway_system, engine,
                                            worker=f"{name}/gateway")
        #: admission-time evaluation cache, keyed on (service weight version,
        #: request state_key).  A hit is answered before the token bucket and
        #: the concurrency window — it consumes neither.  None = disabled,
        #: and the server's decisions are bit-for-bit those of a cacheless one.
        self.eval_cache = (EvalCache(cache_capacity)
                           if cache_capacity is not None else None)
        self.stats = ServerStats()
        self.decision_log: List[Tuple[float, str, str, int, str]] = []
        self._keep_log = keep_decision_log
        #: the fault injector, or None for a fault-free run.  An *empty*
        #: plan also maps to None: every fault hook below early-outs, so the
        #: server is bit-for-bit the pre-fault-injection one.
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.empty:
            self.fault_injector = FaultInjector(fault_plan)
            self.service.attach_fault_injector(self.fault_injector)
        #: when True (default), losing replica capacity tightens admission:
        #: the ingress window and every token bucket scale by the surviving
        #: capacity fraction.  False keeps full-capacity admission during
        #: faults — the no-degrade control arm of the fault sweep.
        self.degraded_admission = degraded_admission
        self._capacity_scale = 1.0
        self._fault_log_cursor = 0
        self._stream = MessageStream()
        self._stream_corrupt_seen = 0
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight: Dict[Tuple[str, int], _Inflight] = {}
        self._backlog: Deque[EvalRequest] = deque()  #: block-policy waiting room
        #: completion times of dispatched-but-not-finished requests: a min
        #: heap so occupancy checks pop finished entries lazily.  Dispatched
        #: work holds its queue slots until completion (see class docstring).
        self._in_service: List[float] = []

    # ------------------------------------------------------------- plumbing
    @property
    def max_batch(self) -> int:
        return self.service.max_batch

    @property
    def pending_tickets(self) -> int:
        return self.service.pending_tickets

    def _log(self, time_us: float, event: str, client_id: str, request_id: int,
             detail: str = "") -> None:
        if self._keep_log:
            self.decision_log.append((time_us, event, client_id, request_id, detail))

    def decision_log_lines(self) -> List[str]:
        """The decision log as stable text lines (byte-comparable)."""
        return [f"{t:.3f} {event} {client}#{rid}" + (f" {detail}" if detail else "")
                for t, event, client, rid, detail in self.decision_log]

    def _bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate_limit_per_sec, self.rate_burst)
            if self._capacity_scale < 1.0:
                bucket.rescale(self._capacity_scale)
            self._buckets[client_id] = bucket
        return bucket

    def occupancy(self, now_us: float) -> int:
        """Admitted requests still incomplete at ``now_us`` (queued + executing)."""
        while self._in_service and self._in_service[0] <= now_us:
            heapq.heappop(self._in_service)
        return self.service.pending_tickets + len(self._in_service)

    def effective_capacity(self) -> Optional[int]:
        """The ingress window after degraded-mode scaling (None if unbounded).

        Under degraded admission the window shrinks proportionally to the
        surviving replica capacity — with half the replicas down, admitting a
        full window would double per-replica queueing and blow latency SLOs;
        shedding the excess at admission keeps the survivors' latency flat.
        Never shrinks below one slot.
        """
        if self.queue_capacity is None:
            return None
        if self._capacity_scale >= 1.0:
            return self.queue_capacity
        return max(1, int(round(self.queue_capacity * self._capacity_scale)))

    def _has_space(self, now_us: float) -> bool:
        capacity = self.effective_capacity()
        return capacity is None or self.occupancy(now_us) < capacity

    # ---------------------------------------------------------------- faults
    def _sync_faults(self, now_us: float) -> None:
        """Apply due replica faults, refresh degraded mode, surface the log."""
        if self.fault_injector is None:
            return
        self.service.apply_due_faults(now_us)
        self._refresh_degraded(now_us)
        self._drain_fault_log()

    def _refresh_degraded(self, now_us: float) -> None:
        """Re-derive the capacity scale from current replica health."""
        if not self.degraded_admission:
            return
        replicas = self.service.replicas
        healthy = sum(1 for replica in replicas if replica.healthy)
        scale = healthy / len(replicas)
        if scale == self._capacity_scale:
            return
        entering = scale < self._capacity_scale
        self._capacity_scale = scale
        for bucket in self._buckets.values():
            bucket.rescale(scale)
        if entering:
            self.stats.degraded_entries += 1
        event = "degrade" if entering else "restore"
        if self.fault_injector is not None:
            self.fault_injector.record(
                now_us, event,
                detail=f"capacity_scale={scale:g} window={self.effective_capacity()}")

    def _drain_fault_log(self) -> None:
        """Append new fault-injector log lines to the decision log.

        Injector lines are ``"{time:.3f} {kind}[ target=N][ detail]"``; they
        enter the decision log under the reserved client id ``"-"`` so
        :meth:`decision_log_lines` renders them alongside admission events
        and the determinism bar covers fault decisions too.
        """
        injector = self.fault_injector
        if injector is None or not self._keep_log:
            return
        while self._fault_log_cursor < len(injector.log):
            line = injector.log[self._fault_log_cursor]
            self._fault_log_cursor += 1
            parts = line.split(" ", 2)
            time_us = float(parts[0])
            detail = parts[2] if len(parts) > 2 else ""
            self.decision_log.append((time_us, parts[1], "-", 0, detail))

    def _shed_reply(self, request: EvalRequest, status: str, now_us: float,
                    detail: str = "") -> Tuple[bytes, float]:
        reply = EvalReply(request_id=request.request_id, client_id=request.client_id,
                          status=status, completion_us=now_us, detail=detail)
        return encode_reply(reply), now_us

    # ------------------------------------------------------------ admission
    def receive(self, frame: bytes, now_us: float) -> List[Tuple[bytes, float]]:
        """Handle request bytes arriving at virtual time ``now_us``.

        Returns ``(reply_frame, delivery_time_us)`` pairs: an immediate shed
        reply, and/or OK replies for any batches the arrival caused to serve
        (its own full batch, or freed backlog admissions).

        Frames flow through a resynchronizing :class:`MessageStream`: a
        malformed frame is skipped to the next magic marker and counted in
        :attr:`ServerStats.corrupt_frames` rather than wedging the server
        (chunked/coalesced delivery is likewise tolerated).
        """
        messages = self._stream.feed(frame)
        corrupt = self._stream.corrupt_frames - self._stream_corrupt_seen
        if corrupt:
            self._stream_corrupt_seen = self._stream.corrupt_frames
            self.stats.corrupt_frames += corrupt
            self._log(now_us, "corrupt-frame", "-", 0, f"frames={corrupt}")
        replies: List[Tuple[bytes, float]] = []
        for message in messages:
            if not isinstance(message, EvalRequest):
                raise ValueError("the server accepts request frames only")
            replies.extend(self.offer(message, now_us))
        return replies

    def offer(self, request: EvalRequest, now_us: float) -> List[Tuple[bytes, float]]:
        """Admission-control one decoded request (see :meth:`receive`)."""
        self._sync_faults(now_us)
        self.stats.arrivals += 1
        self._log(now_us, "arrive", request.client_id, request.request_id,
                  f"attempt={request.attempt} rows={request.num_rows}")
        if request.key in self._inflight:
            raise ValueError(f"duplicate in-flight request {request.key}")
        hit = self._admission_hit(request, now_us)
        if hit is not None:
            return [hit]
        if not self._bucket(request.client_id).admit(now_us):
            self.stats.shed_rate += 1
            self._log(now_us, STATUS_SHED_RATE, request.client_id, request.request_id)
            return [self._shed_reply(request, STATUS_SHED_RATE, now_us,
                                     detail="token bucket empty")]
        replies: List[Tuple[bytes, float]] = []
        if not self._has_space(now_us):
            if self._apply_overload_policy(request, now_us, replies):
                return replies
            if self.overload == OVERLOAD_BLOCK:
                # Parked in the backlog; it enters the queue when a serve
                # frees space (see _pump).
                replies.extend(self._pump(now_us))
                return replies
            # shed-oldest / deadline-drop freed a slot for this arrival.
        self._enqueue(request, now_us, now_us)
        replies.extend(self._pump(now_us))
        return replies

    def _admission_hit(self, request: EvalRequest,
                       now_us: float) -> Optional[Tuple[bytes, float]]:
        """Answer a keyed repeat from the cache, before any defence spends.

        A hit bypasses the token bucket and the concurrency window: the
        reply is built at admission time from the cached priors/values, so
        under overload every hit is one request that can neither be shed
        nor occupy a window slot.  Logged as its own decision-log event.
        """
        if self.eval_cache is None or request.state_key is None:
            return None
        entry = self.eval_cache.get((self.service.weight_version, request.state_key))
        if entry is None:
            return None
        priors, values = entry
        if priors.shape[0] != request.num_rows:
            return None  # same key but a different row block: not our entry
        self.stats.cache_hits += 1
        self.stats.cache_rows += request.num_rows
        self._log(now_us, "cache-hit", request.client_id, request.request_id,
                  f"key={request.state_key} version={self.service.weight_version}")
        reply = EvalReply(request_id=request.request_id,
                          client_id=request.client_id,
                          status=STATUS_OK, priors=priors, values=values,
                          queue_delay_us=0.0, completion_us=now_us,
                          replica=-1, detail="cache")
        return encode_reply(reply), now_us

    def _apply_overload_policy(self, request: EvalRequest, now_us: float,
                               replies: List[Tuple[bytes, float]]) -> bool:
        """Resolve a full ingress queue.  Returns True when ``request`` sheds."""
        if self.overload == OVERLOAD_BLOCK:
            self.stats.blocked += 1
            self.stats.peak_backlog = max(self.stats.peak_backlog, len(self._backlog) + 1)
            self._backlog.append(request)
            self._log(now_us, "block", request.client_id, request.request_id,
                      f"backlog={len(self._backlog)}")
            return False
        if self.overload == OVERLOAD_SHED_OLDEST:
            victim = self._oldest_pending()
            if victim is not None:
                self._drop([victim], STATUS_SHED_QUEUE, now_us, replies,
                           detail="evicted for newer arrival")
                return False  # space freed; the arrival is admitted
            # Nothing evictable (queue drained between check and policy):
            # fall through to shedding the newcomer.
        if self.overload == OVERLOAD_DEADLINE_DROP:
            expired = [entry for entry in self._inflight.values()
                       if not entry.ticket.done
                       and entry.request.deadline_us is not None
                       and entry.request.deadline_us < now_us]
            if expired:
                self._drop(expired, STATUS_SHED_DEADLINE, now_us, replies)
                if self._has_space(now_us):
                    return False
        # shed-newest (and the fallbacks above): the arrival is dropped.
        self.stats.shed_queue += 1
        self._log(now_us, STATUS_SHED_QUEUE, request.client_id, request.request_id,
                  f"policy={self.overload}")
        replies.append(self._shed_reply(request, STATUS_SHED_QUEUE, now_us,
                                        detail=f"queue full ({self.overload})"))
        return True

    def _oldest_pending(self) -> Optional[_Inflight]:
        """The earliest-admitted request still waiting in the service queue."""
        for entry in self._inflight.values():  # insertion == admission order
            if not entry.ticket.done:
                return entry
        return None

    def _drop(self, entries: List[_Inflight], status: str, now_us: float,
              replies: List[Tuple[bytes, float]], detail: str = "") -> None:
        """Shed queued entries: pull their tickets, log, and reply."""
        doomed = {id(entry.ticket) for entry in entries}
        dropped = self.service.drop_pending(lambda t: id(t) in doomed)
        assert len(dropped) == len(entries), "shed requests must still be pending"
        for entry in entries:
            del self._inflight[entry.request.key]
            if status == STATUS_SHED_DEADLINE:
                self.stats.shed_deadline += 1
            else:
                self.stats.shed_queue += 1
            self._log(now_us, status, entry.request.client_id,
                      entry.request.request_id, detail)
            replies.append(self._shed_reply(entry.request, status, now_us, detail=detail))

    def _enqueue(self, request: EvalRequest, now_us: float, arrived_us: float) -> None:
        """Move an admitted request into the service's arrival-order queue."""
        self._clock.seek(now_us)
        metadata = dict(request.metadata)
        metadata["request_id"] = request.request_id
        metadata["client_id"] = request.client_id
        ticket = self.gateway.submit(request.features, metadata=metadata)
        self._inflight[request.key] = _Inflight(request, ticket, now_us, arrived_us)
        self.stats.admitted += 1
        self.stats.peak_queue_tickets = max(self.stats.peak_queue_tickets,
                                            self.service.pending_tickets)
        self._log(now_us, "admit", request.client_id, request.request_id,
                  f"queue={self.service.pending_tickets}")

    # -------------------------------------------------------------- serving
    def _serve_full(self, now_us: float) -> int:
        """Serve whatever is due *now*: full batches (or everything, unbatched)."""
        if self.service.pending_tickets == 0:
            return 0
        if self.flush_policy == FLUSH_UNBATCHED:
            self._clock.seek(now_us)
            return self.service.serve_queued(policy=FLUSH_UNBATCHED)
        if self.service.pending_rows < self.service.max_batch:
            return 0
        self._clock.seek(now_us)
        return self.service.serve_queued(
            policy=self.flush_policy, timeout_us=self.flush_timeout_us,
            full_batches_only=True, stable_before_us=now_us)

    def _pump(self, now_us: float) -> List[Tuple[bytes, float]]:
        """Serve due batches, deliver replies, refill from the backlog."""
        replies: List[Tuple[bytes, float]] = []
        progress = True
        while progress:
            progress = False
            calls = self._serve_full(now_us)
            if calls:
                self.stats.serve_calls += 1
                progress = True
            replies.extend(self._collect())
            while self._backlog and self._has_space(now_us):
                request = self._backlog.popleft()
                self.stats.block_time_us += now_us - request.send_us
                self._log(now_us, "unblock", request.client_id, request.request_id,
                          f"waited={now_us - request.send_us:.1f}us")
                self._enqueue(request, now_us, request.send_us)
                progress = True
        if self.fault_injector is not None:
            # Serving may have consumed crash events (redispatch path):
            # refresh degraded state and surface what the injector logged.
            self._refresh_degraded(now_us)
            self._drain_fault_log()
        return replies

    def _collect(self) -> List[Tuple[bytes, float]]:
        """Build OK reply frames for every ticket its batch completed."""
        done = [entry for entry in self._inflight.values() if entry.ticket.done]
        replies: List[Tuple[bytes, float]] = []
        for entry in done:
            del self._inflight[entry.request.key]
            ticket, request = entry.ticket, entry.request
            meta = ticket.metadata or {}
            completion_us = float(meta.get("completion_us", 0.0))
            reply = EvalReply(
                request_id=request.request_id,
                client_id=request.client_id,
                status=STATUS_OK,
                priors=ticket.priors,
                values=ticket.values,
                queue_delay_us=float(meta.get("queue_delay_us", 0.0)),
                completion_us=completion_us,
                replica=int(meta.get("replica", -1)),
            )
            self.stats.served += 1
            self.stats.rows_served += ticket.num_rows
            if self.eval_cache is not None and request.state_key is not None:
                # Copies detach the cached rows from the batch output the
                # ticket slices are views into (and from later mutation).
                self.stats.cache_evictions += self.eval_cache.put(
                    (self.service.weight_version, request.state_key),
                    np.array(ticket.priors, copy=True),
                    np.array(ticket.values, copy=True))
            heapq.heappush(self._in_service, completion_us)
            self._log(completion_us, "serve", request.client_id, request.request_id,
                      f"delay={reply.queue_delay_us:.1f}us replica={reply.replica}")
            replies.append((encode_reply(reply), completion_us))
        return replies

    # ---------------------------------------------------------- timer hooks
    def _flush_deadline_us(self) -> Optional[float]:
        """When the oldest pending partial batch times out (None if never)."""
        if self.flush_policy != FLUSH_TIMEOUT:
            return None
        earliest = self.service.earliest_pending_arrival_us()
        if earliest is None:
            return None
        return earliest + self.flush_timeout_us

    def next_deadline_us(self) -> Optional[float]:
        """The next virtual time the server needs a timer event (None if never).

        Either a partial-batch flush deadline, or — when blocked requests
        wait on a full window — the earliest in-service completion, which
        frees a slot for the backlog head.
        """
        candidates = []
        flush = self._flush_deadline_us()
        if flush is not None:
            candidates.append(flush)
        if self._backlog and self._in_service:
            candidates.append(self._in_service[0])
        return min(candidates) if candidates else None

    def on_timer(self, now_us: float) -> List[Tuple[bytes, float]]:
        """Fire a timer event: flush a due partial batch, refill the backlog.

        Stale timers (the deadline moved because the batch already served or
        gathered more riders; the slot was taken by a newer serve) degrade
        to a no-op pump, so the event loop may over-schedule timers freely.
        """
        self._sync_faults(now_us)
        replies: List[Tuple[bytes, float]] = []
        deadline = self._flush_deadline_us()
        if deadline is not None and now_us >= deadline:
            self._clock.seek(now_us)
            calls = self.service.serve_queued(policy=self.flush_policy,
                                              timeout_us=self.flush_timeout_us,
                                              arrival_cutoff_us=deadline)
            if calls:
                self.stats.serve_calls += 1
                self.stats.timeout_serves += 1
            replies.extend(self._collect())
        replies.extend(self._pump(now_us))
        return replies

    def drain(self, now_us: float) -> List[Tuple[bytes, float]]:
        """Serve everything still queued or blocked after arrivals stop.

        The server keeps running past the load generator's horizon: held
        partial batches depart at their flush deadlines (``timeout`` policy)
        or immediately (other policies), and the blocked backlog is admitted
        as completions free window slots — virtual time advances to each
        completion as needed.  Returns the remaining replies.
        """
        self._sync_faults(now_us)
        replies: List[Tuple[bytes, float]] = []
        now = now_us
        guard = 0
        while self.service.pending_tickets or self._backlog:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - defensive
                raise RuntimeError("drain did not converge")
            before = len(replies)
            deadline = self._flush_deadline_us()
            if deadline is not None:
                now = max(now, deadline)
                replies.extend(self.on_timer(now))
                if len(replies) > before:
                    continue
            if self.service.pending_tickets:
                # No flush deadline applies (max-batch/unbatched policy):
                # flush the held partials right away.
                self._clock.seek(now)
                if self.service.serve_queued(policy=self.flush_policy,
                                             timeout_us=self.flush_timeout_us):
                    self.stats.serve_calls += 1
                replies.extend(self._collect())
            replies.extend(self._pump(now))
            if self._backlog and not self._has_space(now) and self._in_service:
                # The window is full of executing work: jump to the next
                # completion so a slot frees for the backlog head.
                now = max(now, self._in_service[0])
        return replies


def estimate_capacity_rows_per_sec(network_factory, *, feature_dim: int,
                                   max_batch: int = 8,
                                   cost_config: Optional[CostModelConfig] = None,
                                   seed: int = 0, probes: int = 8) -> float:
    """Measure one replica's serving capacity in feature rows per virtual second.

    Runs ``probes`` full batches through a throwaway single-replica service
    and reads the mean batch time off the replica horizon.  Deterministic
    given the seed, so sweeps can express arrival rates as multiples of
    capacity ("2x overload") without hard-coding cost-model numbers.
    """
    if probes <= 0:
        raise ValueError("probes must be positive")
    server = InferenceServer(network_factory(), max_batch=max_batch,
                             queue_capacity=None, rate_limit_per_sec=None,
                             flush_policy=FLUSH_MAX_BATCH,
                             cost_config=cost_config, seed=seed,
                             name="capacity_probe", keep_decision_log=False)
    rng = np.random.default_rng(seed + 13)
    now = 0.0
    for index in range(probes):
        features = rng.normal(size=(max_batch, feature_dim)).astype(np.float32)
        request = EvalRequest(request_id=index, client_id="probe",
                              features=features, send_us=now, first_send_us=now)
        server.offer(request, now)
        now = server.service.replicas[0].free_us
    replica = server.service.replicas[0]
    assert replica.stats.engine_calls == probes
    mean_batch_us = replica.busy_us / probes
    return max_batch * 1e6 / mean_batch_us
