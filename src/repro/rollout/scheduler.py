"""Virtual-time pool scheduler: interleaves stepwise drivers over one service.

Extracted unchanged from the Minigo worker pool (``repro.minigo.workers``)
when the stepwise-driver machinery became env-agnostic: the scheduler only
ever needed the :class:`~repro.rollout.driver.StepwiseDriver` contract —
``finished``/``blocked``/``runnable``/``now_us``/``worker_name``/``step()``
— so it now accepts any driver (Go self-play, env rollouts, synthetic test
drivers) over any shared :class:`~repro.rollout.inference.InferenceService`.
Schedules, stats and game records are bit-for-bit those of the
pre-refactor scheduler.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .driver import StepwiseDriver
    from .inference import InferenceService

from .planner import FLUSH_MAX_BATCH, FLUSH_UNBATCHED, checked_timeout_us


@dataclass
class SchedulerStats:
    """Counters describing one event-driven scheduling run.

    The heap counters stay zero under the linear-scan loop kept as a test
    oracle (``tests/oracles/scan_scheduler.py``), which lets tests assert
    both that the heap is actually exercised and that every scheduling
    *decision* counter (``steps``, ``serves``, ``timeout_serves``,
    ``eager_serves``, ``steps_per_worker``) is identical between the two
    loops.
    """

    steps: int = 0            #: driver steps executed
    serves: int = 0           #: times the service queue was served
    timeout_serves: int = 0   #: serves triggered by a partial-batch deadline
    eager_serves: int = 0     #: full-batch serves issued while workers still ran
    steps_per_worker: Dict[str, int] = field(default_factory=dict)
    # Heap bookkeeping (heap-driven loop only).
    heap_pushes: int = 0      #: (clock, index) entries pushed
    heap_pops: int = 0        #: entries popped (valid and stale)
    heap_stale_pops: int = 0  #: popped entries invalidated by a newer clock


class PoolScheduler:
    """Virtual-time event loop interleaving stepwise drivers at step granularity.

    The scheduler repeatedly picks the runnable driver with the smallest
    virtual clock and advances it one step (one MCTS wave, one env
    transition, one move commit).  A driver that submits an evaluation
    request suspends; once every unfinished driver is blocked on inference
    the scheduler serves the shared service under its flush policy, which
    batches the pending requests of many workers into shared engine calls
    and un-blocks everyone whose ticket was served.  Under the ``timeout``
    policy a pending partial batch is additionally served as soon as
    virtual time passes its deadline (first arrival + ``flush_timeout_us``),
    even while other workers are still runnable — the latency/throughput
    knob of a real batching server.

    The scheduler is replica-aware: with more than one model replica it no
    longer waits for every worker to block.  As soon as a *full* batch is
    pending (``max_batch`` rows of one network — it can never gather more
    riders), it is served eagerly so a free replica can start it while the
    remaining workers keep running; its riders un-block and overlap their
    next requests with other replicas' in-flight batches.  With a single
    replica the eager path is disabled, so single-replica runs reproduce
    the all-blocked barrier schedule bit-for-bit.

    **Event-loop cost.**  The runnable driver with the minimum clock comes
    off a lazy min-heap of ``(now_us, index)`` entries: a driver is
    (re-)pushed whenever it becomes runnable or its clock advances, and
    entries superseded by a newer push are discarded on pop
    (invalidate-on-advance) — O(log workers) per event instead of the
    original rebuild-the-runnable-list-and-``min()`` scan, which cost
    O(workers) *per event* and dominated interpreter time at high worker
    counts.  The scan loop lives on as a test oracle
    (``tests/oracles/scan_scheduler.py``) and the wall-clock benchmark's
    pre-optimization baseline; both loops produce identical schedules,
    stats and game records (``tests/test_scheduler.py``).
    """

    def __init__(self, drivers: Sequence["StepwiseDriver"], service: "InferenceService", *,
                 flush_policy: str = FLUSH_MAX_BATCH,
                 flush_timeout_us: Optional[float] = None) -> None:
        if not drivers:
            raise ValueError("scheduler needs at least one driver")
        self.drivers = list(drivers)
        self.service = service
        self.flush_policy = flush_policy
        #: the partial-batch timeout (None unless the policy is ``timeout``)
        self.flush_timeout_us = checked_timeout_us(flush_policy, flush_timeout_us)
        self.stats = SchedulerStats()
        # Signature of the pending queue after a fruitless eager attempt
        # plus the virtual time at which retrying could first succeed (the
        # earliest held full batch's departure), so the planner is not
        # re-run every step while nothing changed.
        self._stale_eager_signature: Optional[Tuple[int, int]] = None
        self._eager_retry_at_us: Optional[float] = None

    def _serve(self, *, arrival_cutoff_us: Optional[float] = None) -> int:
        self.stats.serves += 1
        # The serve drains the queue, so a later queue of the same shape is
        # new: forget the last fruitless eager attempt.
        self._stale_eager_signature = None
        self._eager_retry_at_us = None
        return self.service.serve_queued(policy=self.flush_policy,
                                         timeout_us=self.flush_timeout_us,
                                         arrival_cutoff_us=arrival_cutoff_us)

    def _try_eager_serve(self, stable_before_us: float) -> bool:
        """Serve pending *full* batches on the replica pool, if any.

        Only meaningful with several replicas (a single replica reproduces
        the all-blocked barrier schedule) and under a batching flush policy.
        ``stable_before_us`` is the smallest runnable worker clock: only
        batches departing at or before it are safe to serve — a later-
        departing batch could still be reordered behind a future submission
        in global arrival order.  Returns True when at least one batch was
        served — workers may have un-blocked, so the caller must recompute
        the runnable set.
        """
        if (self.service.num_replicas <= 1 or self.flush_policy == FLUSH_UNBATCHED
                or not self.service.full_batch_pending()):
            return False
        signature = (self.service.pending_tickets, self.service.pending_rows)
        if signature == self._stale_eager_signature and (
                self._eager_retry_at_us is None
                or stable_before_us < self._eager_retry_at_us):
            # Same queue as the last fruitless attempt, and virtual time has
            # not yet reached the earliest held batch's departure (if any):
            # re-planning cannot serve anything new.
            return False
        calls = self.service.serve_queued(policy=self.flush_policy,
                                          timeout_us=self.flush_timeout_us,
                                          full_batches_only=True,
                                          stable_before_us=stable_before_us)
        if calls:
            self.stats.serves += 1
            self.stats.eager_serves += 1
            self._stale_eager_signature = None
            self._eager_retry_at_us = None
            return True
        # Nothing was due: rows spread across networks, deadline-split
        # partials, or full batches departing past the stability horizon.
        # Remember the queue shape (and when a held full batch becomes due)
        # so the planner is not re-run until something can change.
        self._stale_eager_signature = signature
        self._eager_retry_at_us = self.service.last_undue_full_depart_us
        return False

    def _step(self, driver: "StepwiseDriver") -> None:
        self.stats.steps += 1
        worker = driver.worker_name
        self.stats.steps_per_worker[worker] = self.stats.steps_per_worker.get(worker, 0) + 1
        driver.step()

    def run(self) -> SchedulerStats:
        """Drive every worker to completion; returns scheduling stats.

        A heap-driven event loop, O(log workers) per event. The heap holds
        ``(now_us, index)`` entries; ``queued_key[index]`` remembers the clock
        of a driver's most recent push. A popped entry whose clock no longer
        matches was superseded by a later push (invalidate-on-advance) and is
        discarded. Drivers are pushed when they become runnable — at the
        start, after a step that leaves them runnable, and after any serve
        (only a serve can un-block a driver; blocked drivers' clocks never
        move, so a sweep over the drivers per *serve* keeps the heap complete
        without touching it per event). Ties pop the lowest index first —
        exactly the driver ``min()`` returned in the linear scan, so schedules
        are identical.
        """
        stats = self.stats
        drivers = self.drivers
        heap: List[Tuple[float, int]] = []
        queued_key: List[Optional[float]] = [None] * len(drivers)

        def push(index: int) -> None:
            key = drivers[index].now_us
            if queued_key[index] != key:
                queued_key[index] = key
                heapq.heappush(heap, (key, index))
                stats.heap_pushes += 1

        def push_runnable() -> None:
            for index, driver in enumerate(drivers):
                if driver.runnable:
                    push(index)

        push_runnable()
        while True:
            nxt: Optional["StepwiseDriver"] = None
            index = -1
            while heap:
                key, candidate = heapq.heappop(heap)
                stats.heap_pops += 1
                if queued_key[candidate] != key:
                    # Superseded by a newer push for this driver.
                    stats.heap_stale_pops += 1
                    continue
                queued_key[candidate] = None
                driver = drivers[candidate]
                if driver.now_us != key or not driver.runnable:
                    # Defensive: state changed without a re-push.  A driver
                    # that is still runnable must not fall out of the heap —
                    # losing it would starve the worker (or deadlock).
                    stats.heap_stale_pops += 1
                    if driver.runnable:
                        push(candidate)
                    continue
                nxt, index = driver, candidate
                break
            if nxt is None:
                if self.service.pending_tickets:
                    # Everyone is blocked at an inference boundary: this is
                    # the virtual instant at which one engine call can serve
                    # every pending request.
                    self._serve()
                    push_runnable()
                    continue
                if all(driver.finished for driver in drivers):
                    return stats
                raise RuntimeError("scheduler deadlock: unfinished workers but "
                                   "nothing runnable and nothing pending")
            if self._try_eager_serve(nxt.now_us):
                # nxt was not stepped; it and any just-unblocked riders go
                # back into the heap before the next pick.
                push(index)
                push_runnable()
                continue
            deadline = self.service.pending_deadline_us(self.flush_timeout_us)
            if deadline is not None and nxt.now_us >= deadline:
                # The oldest pending batch times out before the next worker
                # would act: depart it partial, serving only requests that
                # arrived by the deadline (later ones wait for more riders).
                self.stats.timeout_serves += 1
                self._serve(arrival_cutoff_us=deadline)
                push(index)
                push_runnable()
                continue
            self._step(nxt)
            if nxt.runnable:
                push(index)
