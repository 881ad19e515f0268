"""Parent-side orchestration of shard processes (or their inline stand-in).

The runner owns one message channel per shard.  All traffic is strictly
serial per channel and every request gets exactly one reply, so the only
buffering needed parent-side is for ``seg`` replies that arrive while the
parent is waiting on an ``exec`` round-trip (results of a previous serve
are still draining out of the child's FIFO).

Backends:

* ``process`` — each shard is a daemon OS process over a
  ``multiprocessing`` pipe (fork where available, spawn otherwise).  The
  shards advance their drivers' segments concurrently, which is the entire
  wall-clock win: tree search, env stepping and cost-model sampling — the
  dominant interpreter work — run on ``num_processes`` cores while the
  parent only merges timelines and plans batches.
* ``inline`` — the shard lives in the parent process and replies are
  computed synchronously at send time.  Used for CI and debugging; the
  build spec still takes a pickle round-trip so picklability bugs and
  state-isolation bugs surface identically to the process backend.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Dict, List, Optional, Sequence

from ..faults.plan import FaultPlan
from .shard import ShardSpec, handle_message, shard_main


class _InlineChannel:
    """In-process shard: send computes the reply immediately."""

    def __init__(self, spec: ShardSpec) -> None:
        class _State:
            shard = None

        self._state = _State()
        # Pickle round-trip for parity with the process backend: the child
        # must be buildable from the serialized spec alone.
        self._spec = pickle.loads(pickle.dumps(spec))
        self._replies: List[tuple] = []

    def send(self, msg: tuple) -> None:
        if msg[0] == "stop":
            return
        if msg[0] == "build":
            msg = ("build", self._spec)
        self._replies.append(handle_message(self._state, msg))

    def recv(self) -> tuple:
        return self._replies.pop(0)

    def close(self) -> None:
        self._state.shard = None


class _ProcessChannel:
    """One shard process behind a duplex pipe; strictly serial FIFO.

    With replay enabled (fault-injection runs), the channel journals every
    request it sends and counts the replies already consumed.  A dead child
    — detected as ``EOFError`` on recv or a broken pipe on send — is then
    **respawned and replayed**: the journal is resent in order, the first
    ``consumed`` replies are discarded, and the interrupted call resumes.
    Shards are pure functions of their build spec and message sequence, so
    the replayed child reconstructs exactly the state the dead one held —
    records, clocks and trace shards come out bit-identical.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._journal: Optional[List[tuple]] = None
        self._consumed = 0
        self._on_respawn = None
        self._spawn()

    def _spawn(self) -> None:
        self._conn, child_conn = self._ctx.Pipe()
        self._proc = self._ctx.Process(target=shard_main, args=(child_conn,),
                                       daemon=True)
        self._proc.start()
        child_conn.close()

    def enable_replay(self, on_respawn=None) -> None:
        """Start journalling traffic for crash recovery (fault runs only)."""
        self._journal = []
        self._consumed = 0
        self._on_respawn = on_respawn

    def arm(self, crash_after_results: int) -> None:
        """Tell the child to fail-stop on its n-th ``results`` message.

        Bypasses the journal and the consumed-reply count on purpose: a
        respawned child must never be re-armed, or it would crash again at
        the same point forever.
        """
        self._conn.send(("arm", int(crash_after_results)))
        reply = self._conn.recv()
        assert reply == ("armed",), reply

    def send(self, msg: tuple) -> None:
        if self._journal is not None:
            self._journal.append(msg)
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError):
            if self._journal is None:
                raise
            # The child died before this message landed; the journal already
            # holds it, so the replay delivers it to the fresh child.
            self._respawn_and_replay()

    def recv(self) -> tuple:
        while True:
            try:
                reply = self._conn.recv()
            except (EOFError, ConnectionResetError):
                if self._journal is None:
                    raise RuntimeError("shard process exited without replying")
                self._respawn_and_replay()
                continue
            if reply[0] == "error":
                raise RuntimeError(f"shard process failed:\n{reply[1]}")
            self._consumed += 1
            return reply

    def _respawn_and_replay(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._spawn()
        # Resend the journal, draining already-consumed replies as they
        # become available so neither pipe direction can fill and deadlock.
        discarded = 0
        for msg in self._journal:
            self._conn.send(msg)
            while discarded < self._consumed and self._conn.poll():
                discarded += self._discard_one()
        while discarded < self._consumed:
            discarded += self._discard_one()
        if self._on_respawn is not None:
            self._on_respawn(len(self._journal), self._consumed)

    def _discard_one(self) -> int:
        reply = self._conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard replay failed:\n{reply[1]}")
        return 1

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()
            self._proc.join(timeout=5)


BACKENDS = ("process", "inline")


def assign_workers(num_workers: int, num_processes: int) -> List[List[int]]:
    """Stripe worker indices over processes (worker ``i`` → process ``i % P``).

    Striping balances shards when workers have index-correlated workloads
    and keeps the assignment independent of worker count changes elsewhere.
    """
    num_processes = max(1, min(num_processes, num_workers))
    return [[index for index in range(num_workers) if index % num_processes == p]
            for p in range(num_processes)]


class ParallelRunner:
    """Routes mirror-service traffic to the shard owning each worker."""

    def __init__(self, specs: Sequence[ShardSpec], *, backend: str = "process",
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown parallel backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        self.backend = backend
        self.specs = list(specs)
        if backend == "inline":
            self.channels = [_InlineChannel(spec) for spec in self.specs]
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            self.channels = [_ProcessChannel(ctx) for _ in self.specs]
        #: replayable record of every injected shard fault and recovery
        self.fault_log: List[str] = []
        self.respawns = 0
        if (fault_plan is not None and not fault_plan.empty
                and backend == "process"):
            # Journal all traffic so a dead shard can be respawned and
            # replayed; arm the planned crashes (k-th results message).
            crashes = fault_plan.shard_crashes()
            for index, channel in enumerate(self.channels):
                channel.enable_replay(
                    on_respawn=lambda replayed, discarded, index=index:
                        self._record_respawn(index, replayed, discarded))
                crash_after = crashes.get(index)
                if crash_after:
                    channel.arm(crash_after)
                    self.fault_log.append(
                        f"shard-crash-armed shard={index} "
                        f"after_results={crash_after}")
        self._chan_of: Dict[int, object] = {}
        for channel, spec in zip(self.channels, self.specs):
            for windex in spec.worker_indices:
                self._chan_of[windex] = channel
        self.proxies: List[object] = []
        self._seg_buffer: Dict[int, dict] = {}
        self._exec_seq = 0

    def _record_respawn(self, index: int, replayed: int, discarded: int) -> None:
        self.respawns += 1
        self.fault_log.append(f"shard-respawn shard={index} replayed={replayed} "
                              f"discarded={discarded}")

    # ----------------------------------------------------------------- setup
    def attach(self, proxies: Sequence[object]) -> None:
        """Register the proxy drivers (for result dispatch after serves)."""
        self.proxies = sorted(proxies, key=lambda proxy: proxy.windex)

    def build(self) -> Dict[int, dict]:
        """Build every shard and collect all initial segments.

        The build request goes out to every channel before any reply is
        awaited, so shard processes construct their worker stacks — and run
        their first segments — concurrently.
        """
        for channel, spec in zip(self.channels, self.specs):
            channel.send(("build", spec))
        segments: Dict[int, dict] = {}
        for channel in self.channels:
            _, built = channel.recv()
            segments.update(built)
        return segments

    # --------------------------------------------------------------- serving
    def execute(self, windex: int, replica_index: int, features, start_us: float):
        """Blocking engine-call round-trip on the host worker's shard."""
        channel = self._chan_of[windex]
        self._exec_seq += 1
        channel.send(("exec", self._exec_seq, windex, replica_index,
                      features, start_us))
        while True:
            reply = channel.recv()
            if reply[0] == "seg":
                # A previous serve's results were still draining through the
                # child's FIFO; keep its reply for collect_segment.
                self._seg_buffer[reply[1]] = reply[2]
                continue
            _, _, priors, values, end_us = reply
            return priors, values, end_us

    def dispatch_completed(self) -> None:
        """Send every newly-served ticket's rows to its shard, fire-and-forget.

        Called by the mirror service after each serve.  Worker-index order
        keeps the per-child message sequence deterministic; the ``seg``
        replies are collected lazily when the scheduler next steps each
        proxy, so shards resume computing their next segments while the
        parent keeps scheduling.
        """
        for proxy in self.proxies:
            ticket = proxy._ticket
            if ticket is None or not ticket.done or proxy.dispatched:
                continue
            proxy.dispatched = True
            metadata = dict(ticket.metadata) if ticket.metadata is not None else None
            self._chan_of[proxy.windex].send(
                ("results", proxy.windex, ticket.priors, ticket.values,
                 metadata, proxy.client.system.clock.now_us))

    def collect_segment(self, windex: int) -> dict:
        """The next segment of ``windex`` (its results were already sent)."""
        if windex in self._seg_buffer:
            return self._seg_buffer.pop(windex)
        channel = self._chan_of[windex]
        while True:
            reply = channel.recv()
            if reply[0] != "seg":
                raise RuntimeError(f"expected a segment reply, got {reply[0]!r}")
            if reply[1] == windex:
                return reply[2]
            self._seg_buffer[reply[1]] = reply[2]

    # -------------------------------------------------------------- teardown
    def finalize(self) -> Dict[int, object]:
        """Finalize every shard *serially* and merge their per-worker runs.

        Serial on purpose: in streaming mode each shard's finalize merges
        its trace shards into the store index read-modify-write, so two
        shards must never write the index concurrently.
        """
        finals: Dict[int, object] = {}
        for channel in self.channels:
            channel.send(("finalize",))
            _, shard_finals = channel.recv()
            finals.update(shard_finals)
        return finals

    def stop(self) -> None:
        for channel in self.channels:
            channel.close()
