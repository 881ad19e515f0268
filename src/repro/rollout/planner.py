"""The inference service's batch planner: which queued rows ride which batch, and when.

:func:`plan` is a pure function of the tickets taken off the service queue
and the serve's flush settings.  It returns every batch to run (ticket row
spans, row count, departure time), the tickets to put back on the queue and
the earliest departure of a full batch held back as not yet stable.  It
reads only each ticket's ``arrival_us``, ``seq`` and ``num_rows`` and
touches no engine, clock, replica or stats object, so a plan can be checked
without running anything (``tests/test_planner.py`` compares it with the
pre-split planning code kept in ``tests/oracles/batch_planner.py``).

Packing is greedy in arrival order, per network.  A full batch departs when
its last rider arrives.  A partial batch departs at its first rider's
flush deadline (:func:`flush_deadline_us`) under the ``timeout`` policy,
else when its last rider arrives.  The ``unbatched`` policy slices each
ticket into ``max_batch``-row batches that depart at ``None``: they run at
once, on the host worker's own clock.

One hold rule decides what runs: a batch runs when it is *due*, or when
one of its tickets straddles a batch that already runs (re-queueing part of
a split ticket would serve its rows twice).  Every other batch's tickets go
back on the queue.  A batch is due unless

* the serve asked for full batches only and the batch is partial, or full
  but departing after ``stable_before_us`` (a still-running worker could yet
  submit rows that sort before it), or
* the serve was triggered by a deadline (``arrival_cutoff_us``) and the
  batch is a partial one whose own deadline lies beyond it: its tickets can
  still gather riders.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Flush policies understood by :func:`plan`.
FLUSH_UNBATCHED = "unbatched"    #: one ticket per engine call, no queueing
FLUSH_MAX_BATCH = "max-batch"    #: depart when full (or when serving triggers)
FLUSH_TIMEOUT = "timeout"        #: like max-batch, plus a partial-batch deadline
FLUSH_POLICIES = (FLUSH_UNBATCHED, FLUSH_MAX_BATCH, FLUSH_TIMEOUT)

#: ``(ticket, lo, hi)``: rows ``lo:hi`` of one ticket ride a batch.
Span = Tuple[object, int, int]


class BatchPlan(NamedTuple):
    """One batch to run: its ticket row spans, total rows and departure.

    ``depart_us`` is None for an ``unbatched`` plan, which runs on its host
    worker's clock with no queueing.
    """

    spans: List[Span]
    rows: int
    depart_us: Optional[float]


class ServePlan(NamedTuple):
    """Everything one serve decides, before anything runs."""

    batches: List[BatchPlan]     #: in run order: per network, arrival order
    held: List[object]           #: tickets to re-queue, each once
    #: earliest departure among full batches held as not yet stable (None
    #: when none were, or when the serve did not ask for full batches only)
    undue_full_depart_us: Optional[float]


def flush_policy_error(policy: str, timeout_us: Optional[float]) -> Optional[str]:
    """Why ``policy`` with ``timeout_us`` is not a valid flush setting (None if it is)."""
    if policy not in FLUSH_POLICIES:
        return f"unknown flush policy {policy!r}; expected one of {FLUSH_POLICIES}"
    if policy == FLUSH_TIMEOUT and (timeout_us is None or timeout_us < 0):
        return "the timeout flush policy requires a non-negative flush_timeout_us"
    return None


def checked_timeout_us(policy: str, timeout_us: Optional[float]) -> Optional[float]:
    """The partial-batch timeout ``policy`` runs with: ``timeout_us`` under
    ``timeout``, else None.  Raises ``ValueError`` for an invalid setting."""
    error = flush_policy_error(policy, timeout_us)
    if error is not None:
        raise ValueError(error)
    return timeout_us if policy == FLUSH_TIMEOUT else None


def flush_deadline_us(first_arrival_us: Optional[float],
                      timeout_us: Optional[float]) -> Optional[float]:
    """When a partial batch whose first rider arrived at ``first_arrival_us``
    departs under a ``timeout_us`` timeout (None without either)."""
    if first_arrival_us is None or timeout_us is None:
        return None
    return first_arrival_us + timeout_us


def _arrival_order(ticket) -> Tuple[float, int]:
    return ticket.arrival_us, ticket.seq


def _pack(tickets: Sequence, max_batch: int, timeout_us: Optional[float]) -> List[BatchPlan]:
    """Greedy arrival-order packing of one network's sorted tickets."""
    batches: List[BatchPlan] = []
    spans: List[Span] = []
    rows = 0
    deadline: Optional[float] = None
    last_arrival = 0.0
    for ticket in tickets:
        if spans and deadline is not None and ticket.arrival_us > deadline:
            batches.append(BatchPlan(spans, rows, deadline))
            spans, rows = [], 0
        lo = 0
        while lo < ticket.num_rows:
            if not spans:
                deadline = flush_deadline_us(ticket.arrival_us, timeout_us)
            take = min(ticket.num_rows - lo, max_batch - rows)
            spans.append((ticket, lo, lo + take))
            rows += take
            lo += take
            last_arrival = ticket.arrival_us
            if rows == max_batch:
                # The admission check above guarantees the last rider
                # arrived within the first rider's deadline.
                batches.append(BatchPlan(spans, rows, last_arrival))
                spans, rows = [], 0
    if spans:
        batches.append(BatchPlan(spans, rows,
                                 deadline if deadline is not None else last_arrival))
    return batches


def plan(groups: Iterable[Sequence], *, max_batch: int, policy: str,
         timeout_us: Optional[float] = None,
         arrival_cutoff_us: Optional[float] = None,
         full_batches_only: bool = False,
         stable_before_us: Optional[float] = None) -> ServePlan:
    """Plan one serve of the taken tickets, one group per network.

    Batches never mix groups (rows of different networks never share a
    matmul); within a group tickets are packed in ``(arrival_us, seq)``
    order.  The keyword arguments are those of
    :meth:`~repro.rollout.inference.InferenceService.serve_queued`; see the
    module docstring for the packing and hold rules.
    """
    timeout_us = checked_timeout_us(policy, timeout_us)
    batches: List[BatchPlan] = []
    held: List[object] = []
    undue: Optional[float] = None
    for group in groups:
        tickets = sorted(group, key=_arrival_order)
        if policy == FLUSH_UNBATCHED:
            for ticket in tickets:
                for lo in range(0, ticket.num_rows, max_batch):
                    hi = min(lo + max_batch, ticket.num_rows)
                    batches.append(BatchPlan([(ticket, lo, hi)], hi - lo, None))
            continue
        running: set = set()
        held_ids: set = set()
        for batch in _pack(tickets, max_batch, timeout_us):
            full = batch.rows >= max_batch
            stable = stable_before_us is None or batch.depart_us <= stable_before_us
            if full_batches_only and full and not stable:
                if undue is None or batch.depart_us < undue:
                    undue = batch.depart_us
            due = ((not full_batches_only or (full and stable))
                   and (arrival_cutoff_us is None or full
                        or batch.depart_us <= arrival_cutoff_us))
            if due or any(id(ticket) in running for ticket, _, _ in batch.spans):
                batches.append(batch)
                running.update(id(ticket) for ticket, _, _ in batch.spans)
                continue
            for ticket, _, _ in batch.spans:
                if id(ticket) not in held_ids:
                    held_ids.add(id(ticket))
                    held.append(ticket)
    return ServePlan(batches, held, undue)
