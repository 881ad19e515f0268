"""The pure batch planner against the pre-split planning code, and on its own.

:func:`repro.rollout.planner.plan` replaced the planning half of
``InferenceService.serve_queued``; ``tests/oracles/batch_planner.py`` keeps
that code.  The hypothesis test draws ticket streams (arrival times, row
counts up to three full batches, one or two networks) and serve settings
(every flush policy, with and without an arrival cutoff, full batches only
with and without a stability horizon), and checks that both plan the same
batches, hold the same tickets and report the same undue departure.  It
then checks the invariants a plan must keep without running anything.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.batch_planner import reference_plan
from repro.rollout.planner import (
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
    checked_timeout_us,
    flush_policy_error,
    plan,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class Ticket:
    """The three fields the planner reads, plus the network it groups by."""

    def __init__(self, seq: int, arrival_us: float, num_rows: int, network: int) -> None:
        self.seq = seq
        self.arrival_us = arrival_us
        self.num_rows = num_rows
        self.network = network

    def __repr__(self) -> str:  # pragma: no cover - hypothesis reports
        return f"T{self.seq}(t={self.arrival_us}, rows={self.num_rows}, net={self.network})"


def take(tickets, cutoff):
    """The tickets a serve takes, one list per network, as the service takes them."""
    groups = {}
    for ticket in tickets:
        if cutoff is None or ticket.arrival_us <= cutoff:
            groups.setdefault(ticket.network, []).append(ticket)
    return list(groups.values())


@st.composite
def serves(draw):
    max_batch = draw(st.integers(1, 6))
    networks = draw(st.integers(1, 2))
    specs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3 * max_batch),
                                    st.integers(0, networks - 1)), min_size=1, max_size=12))
    tickets = [Ticket(seq, float(arrival), rows, network)
               for seq, (arrival, rows, network) in enumerate(specs)]
    policy = draw(st.sampled_from(FLUSH_POLICIES))
    timeout = draw(st.sampled_from([0.0, 2.5, 7.0, 20.0]))
    # Times near the stream's own: an arrival, or the oldest request's flush
    # deadline (the cutoff the scheduler and the server pass), or any time.
    earliest = min(t.arrival_us for t in tickets)
    near = st.sampled_from([t.arrival_us for t in tickets])
    maybe_time = st.one_of(st.none(), near, st.just(earliest + timeout),
                           st.integers(0, 45).map(float))
    kwargs = dict(policy=policy, timeout_us=timeout if policy == FLUSH_TIMEOUT
                  else draw(st.none() | st.just(timeout)),
                  arrival_cutoff_us=draw(maybe_time),
                  full_batches_only=draw(st.booleans()),
                  stable_before_us=draw(maybe_time))
    return tickets, max_batch, kwargs


def spans_of(batch):
    return [(ticket.seq, lo, hi) for ticket, lo, hi in batch]


#: A cutoff serve asking for full batches only, holding both an undue full
#: batch and the trailing partial: the one case where the two re-queue
#: orders differ.
HELD_TWICE = ([Ticket(0, 5.0, 2, 0), Ticket(1, 6.0, 1, 0)], 2,
              dict(policy=FLUSH_TIMEOUT, timeout_us=20.0, arrival_cutoff_us=10.0,
                   full_batches_only=True, stable_before_us=0.0))


@settings(max_examples=400, deadline=None)
@given(serves())
@example(HELD_TWICE)
def test_plan_equals_the_pre_split_planner_and_keeps_its_invariants(serve):
    tickets, max_batch, kwargs = serve
    cutoff = kwargs["arrival_cutoff_us"]
    got = plan(take(tickets, cutoff), max_batch=max_batch, **kwargs)
    want_batches, want_held, want_undue = reference_plan(
        take(tickets, cutoff), max_batch=max_batch, **kwargs)

    assert [(spans_of(b.spans), b.rows, b.depart_us) for b in got.batches] == \
        [(spans_of(chunk), rows, depart) for chunk, rows, depart in want_batches]
    # The old code re-queued a cutoff-held trailing batch before the other
    # held batches of its network; the service re-sorts a network's tickets
    # by arrival when it next takes them, so only the set matters there.
    assert sorted(t.seq for t in got.held) == sorted(t.seq for t in want_held)
    if kwargs["arrival_cutoff_us"] is None or not kwargs["full_batches_only"]:
        assert [t.seq for t in got.held] == [t.seq for t in want_held]
    assert got.undue_full_depart_us == want_undue

    # Plan-only invariants.
    taken = [t for group in take(tickets, cutoff) for t in group]
    held = {t.seq for t in got.held}
    assert len(held) == len(got.held)
    served_rows = {}
    for batch in got.batches:
        assert 0 < batch.rows <= max_batch
        assert batch.rows == sum(hi - lo for _, lo, hi in batch.spans)
        assert len({ticket.network for ticket, _, _ in batch.spans}) == 1
        for ticket, lo, hi in batch.spans:
            assert ticket.seq not in held
            served_rows.setdefault(ticket.seq, []).append((lo, hi))
        if kwargs["policy"] == FLUSH_UNBATCHED:
            assert batch.depart_us is None and len(batch.spans) == 1
            continue
        first = batch.spans[0][0]
        assert all(ticket.arrival_us <= batch.depart_us for ticket, _, _ in batch.spans)
        if kwargs["policy"] == FLUSH_TIMEOUT:
            assert batch.depart_us <= first.arrival_us + kwargs["timeout_us"]
    for ticket in taken:
        if ticket.seq in held:
            assert ticket.seq not in served_rows
            continue
        rows = sorted(served_rows[ticket.seq])
        assert rows[0][0] == 0 and rows[-1][1] == ticket.num_rows
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
    for network in {t.network for t in taken}:
        order = [(ticket.arrival_us, ticket.seq, lo) for batch in got.batches
                 for ticket, lo, _ in batch.spans if ticket.network == network]
        assert order == sorted(order)


def test_flush_settings_are_checked_in_one_place():
    assert flush_policy_error("max-batch", None) is None
    assert checked_timeout_us("max-batch", 50.0) is None
    assert checked_timeout_us("timeout", 50.0) == 50.0
    assert "unknown flush policy" in flush_policy_error("bogus", None)
    for bad in (None, -1.0):
        assert "non-negative" in flush_policy_error("timeout", bad)


def test_planner_imports_no_engine_clock_or_system_module():
    """Load the planner without the package ``__init__``s and list what it pulled in."""
    script = f"""
import importlib, sys, types
for name, path in (("repro", {str(SRC / "repro")!r}),
                   ("repro.rollout", {str(SRC / "repro" / "rollout")!r})):
    package = types.ModuleType(name)
    package.__path__ = [path]
    sys.modules[name] = package
importlib.import_module("repro.rollout.planner")
print("\\n".join(sorted(name for name in sys.modules if name.startswith("repro"))))
"""
    loaded = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "repro.rollout.planner" in loaded
    forbidden = ("repro.backend", "repro.cuda", "repro.hw", "repro.system")
    assert [name for name in loaded if name.startswith(forbidden)] == []
