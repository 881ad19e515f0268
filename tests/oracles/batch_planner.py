"""The pre-split batch planning of ``InferenceService.serve_queued``, kept as an oracle.

Before :mod:`repro.rollout.planner` existed, ``serve_queued`` planned and ran
batches in one loop: ``_plan_batches`` packed each network's tickets,
a cutoff-triggered serve held back a trailing partial batch, and
``_hold_partial_batches`` kept only the due full batches of a
``full_batches_only`` serve.  Those two methods are kept here unchanged, and
so is the planning part of ``serve_queued``; where it used to run a batch
(``_evaluate_chunk`` for ``unbatched``, ``_serve_chunk_queued`` otherwise) it
now records it.  :func:`reference_plan` returns what it decided, for
``tests/test_planner.py`` to compare with :func:`repro.rollout.planner.plan`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.rollout.planner import (
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
)

#: One planned batch as the old code held it: ``(chunk, rows, depart_us)``,
#: ``depart_us`` None for an ``unbatched`` batch.
OldBatch = Tuple[list, int, Optional[float]]


class ReferencePlanner:
    """The planning state of the pre-split service: batch size and requeues."""

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max_batch
        self.last_undue_full_depart_us: Optional[float] = None
        self.planned: List[OldBatch] = []
        self.requeued: list = []

    def _requeue(self, tickets) -> None:
        self.requeued.extend(tickets)

    def serve_queued(self, groups, *, policy: str, timeout_us: Optional[float] = None,
                     arrival_cutoff_us: Optional[float] = None,
                     full_batches_only: bool = False,
                     stable_before_us: Optional[float] = None) -> int:
        if policy not in FLUSH_POLICIES:
            raise ValueError(f"unknown flush policy {policy!r}; expected one of {FLUSH_POLICIES}")
        if policy == FLUSH_TIMEOUT:
            if timeout_us is None or timeout_us < 0:
                raise ValueError("the timeout policy requires a non-negative timeout_us")
        else:
            timeout_us = None
        calls = 0
        if full_batches_only:
            self.last_undue_full_depart_us = None
        for tickets in groups:
            tickets.sort(key=lambda t: (t.arrival_us, t.seq))
            if policy == FLUSH_UNBATCHED:
                for ticket in tickets:
                    lo = 0
                    while lo < ticket.num_rows:
                        hi = min(lo + self.max_batch, ticket.num_rows)
                        self.planned.append(([(ticket, lo, hi)], hi - lo, None))
                        calls += 1
                        lo = hi
                continue
            batches = self._plan_batches(tickets, timeout_us)
            if arrival_cutoff_us is not None and batches:
                # Cutoff-triggered serve (a deadline passed): a trailing
                # partial batch whose own deadline lies beyond the cutoff is
                # not due yet — hold its tickets back so they can still
                # gather riders, unless a split ticket straddles the served
                # batches (partial re-queueing would double-serve its rows).
                chunk, rows, depart_us = batches[-1]
                if rows < self.max_batch and depart_us > arrival_cutoff_us:
                    served = {id(t) for c, _, _ in batches[:-1] for t, _, _ in c}
                    if not any(id(t) in served for t, _, _ in chunk):
                        self._requeue(t for t, _, _ in chunk)
                        batches.pop()
            if full_batches_only and batches:
                batches = self._hold_partial_batches(batches, stable_before_us)
            for chunk, rows, depart_us in batches:
                self.planned.append((chunk, rows, depart_us))
                calls += 1
        return calls

    def _hold_partial_batches(self, batches, stable_before_us: Optional[float]):
        """Keep only due full batches; re-queue the tickets of the rest.

        A full batch is due when its departure is not later than
        ``stable_before_us`` (no still-running worker could submit rows that
        sort before it in arrival order).  A held batch is still served when
        one of its tickets straddles a served batch (ticket rows split at a
        full-batch boundary must not be double-served by a later re-plan)."""
        served_ids: set = set()
        keep = []
        held_tickets: List[InferenceTicket] = []
        held_ids: set = set()
        for chunk, rows, depart_us in batches:
            straddles = any(id(t) in served_ids for t, _, _ in chunk)
            due = stable_before_us is None or depart_us <= stable_before_us
            if rows >= self.max_batch and not due:
                if (self.last_undue_full_depart_us is None
                        or depart_us < self.last_undue_full_depart_us):
                    self.last_undue_full_depart_us = depart_us
            if (rows >= self.max_batch and due) or straddles:
                keep.append((chunk, rows, depart_us))
                served_ids.update(id(t) for t, _, _ in chunk)
            else:
                for ticket, _, _ in chunk:
                    if id(ticket) not in held_ids:
                        held_ids.add(id(ticket))
                        held_tickets.append(ticket)
        self._requeue(held_tickets)
        return keep

    def _plan_batches(self, tickets: List[InferenceTicket], timeout_us: Optional[float]
                      ) -> List[Tuple[List[Tuple[InferenceTicket, int, int]], int, float]]:
        """Greedy arrival-order packing into ``(chunk, rows, depart_us)`` batches.

        A full batch departs when its last rider arrives; a partial batch
        departs at ``first arrival + timeout_us`` when a timeout is set (the
        server waits out the deadline hoping to fill), else when its last
        rider arrives (the serve trigger means no more arrivals are coming).
        """
        batches: List[Tuple[List[Tuple[InferenceTicket, int, int]], int, float]] = []
        chunk: List[Tuple[InferenceTicket, int, int]] = []
        rows = 0
        first_arrival = 0.0
        last_arrival = 0.0

        def close(depart_us: float) -> None:
            nonlocal chunk, rows
            batches.append((chunk, rows, depart_us))
            chunk, rows = [], 0

        for ticket in tickets:
            if chunk and timeout_us is not None and ticket.arrival_us > first_arrival + timeout_us:
                close(first_arrival + timeout_us)
            lo = 0
            while lo < ticket.num_rows:
                if not chunk:
                    first_arrival = ticket.arrival_us
                take = min(ticket.num_rows - lo, self.max_batch - rows)
                chunk.append((ticket, lo, lo + take))
                rows += take
                lo += take
                last_arrival = ticket.arrival_us
                if rows == self.max_batch:
                    # A full batch departs when its last rider arrives (the
                    # admission check above guarantees that is within the
                    # first rider's deadline).
                    close(last_arrival)
        if chunk:
            close(first_arrival + timeout_us if timeout_us is not None else last_arrival)
        return batches


def reference_plan(groups, *, max_batch: int, **kwargs):
    """``(batches, requeued tickets, undue full departure)`` of the old code.

    ``groups`` are the taken tickets, one list per network (the lists are
    sorted in place, as the old code did).  The undue departure is None
    unless ``full_batches_only`` is set.
    """
    planner = ReferencePlanner(max_batch)
    planner.serve_queued(groups, **kwargs)
    undue = planner.last_undue_full_depart_us if kwargs.get("full_batches_only") else None
    return planner.planned, planner.requeued, undue
