"""Child-process side of the multiprocess pool: one shard of worker stacks.

A :class:`WorkerShard` owns a subset of a pool's workers inside one OS
process.  It rebuilds the pool from a picklable :class:`ShardSpec` (pool
class key, single-process :class:`~repro.rollout.pool.PoolConfig`, the pool
class's own options, owned worker indices) and builds those workers through
the pool's own ``_build_workers`` — the method the single-process run uses.
Every per-worker RNG stream is derived from ``(seed, worker_index)`` (see
:mod:`repro.rollout.seeding`), so a stack built here is bit-identical to the
single-process pool's.

Between inference serves the shard advances each owned driver on its own —
:meth:`run_segment` steps a driver until it suspends at an inference
boundary and records every step's virtual-clock interval.  The parent
replays those records through real :class:`~repro.parallel.proxy.ProxyDriver`
objects, so the unchanged :class:`~repro.rollout.scheduler.PoolScheduler`
makes exactly the sequential run's decisions.  The shard also executes the
engine calls of every batch *hosted* by one of its workers
(:meth:`execute`): kernels charge the host worker's own cost model and
streams, keeping the merged device timeline identical to the sequential
run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

# Every shard's profilers write through the trace sink.  Importing it here,
# in a module the parent loads before it forks its shards, lets each fresh
# shard inherit the module instead of importing it again.
from ..tracedb import writer as _trace_sink  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rollout.pool import PoolConfig


@dataclass
class ShardSpec:
    """Everything one shard process needs to rebuild its workers.

    ``pool_config`` is the owning pool's config without ``num_processes``
    and ``fault_plan`` (see :meth:`~repro.rollout.pool.WorkerPool._shard_specs`);
    ``own_options`` are the pool class's own constructor options.  Both
    must pickle, which is why a multiprocess env pool takes no
    ``policy_factory``.
    """

    kind: str                       #: pool class key: "selfplay" | "envrollout"
    pool_config: "PoolConfig"
    own_options: dict
    worker_indices: List[int]       #: global worker indices owned by this shard
    weights: Optional[list] = field(default=None, repr=False)


def _pool_class(kind: str):
    """The pool class a :class:`ShardSpec` of ``kind`` rebuilds (imported lazily)."""
    if kind == "selfplay":
        from ..minigo.workers import SelfPlayPool
        return SelfPlayPool
    if kind == "envrollout":
        from ..rollout.pool import EnvRolloutPool
        return EnvRolloutPool
    raise ValueError(f"unknown shard kind {kind!r}")


class WorkerShard:
    """One process's fully-built worker stacks and their drivers."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.pool = _pool_class(spec.kind)(**spec.own_options, **vars(spec.pool_config))
        built = self.pool._build_workers(spec.worker_indices, spec.weights)
        #: windex -> :class:`~repro.rollout.pool.WorkerStack`
        self.stacks = dict(zip(spec.worker_indices, built))
        self.service = self.pool.inference_service
        self.tickets: Dict[int, object] = {}

    # ------------------------------------------------------------- segments
    def build(self) -> Dict[int, dict]:
        """Run every owned driver's initial segment (worker-index order)."""
        return {windex: self.run_segment(windex)
                for windex in self.spec.worker_indices}

    def run_segment(self, windex: int) -> dict:
        """Advance one driver until it blocks (or finishes), recording steps.

        Each record is the step's ``(pre, post)`` virtual-clock pair; the
        parent's proxy replays the ``post`` values and asserts the ``pre``
        values match its own mirror clock, so any timeline divergence fails
        loudly instead of silently corrupting the merge.  When the segment
        ends at an inference boundary the submitted ticket's features and
        metadata ride along; the local service queue is drained (the parent
        mirror owns all queueing and batching decisions).
        """
        driver = self.stacks[windex].driver
        records: List[tuple] = []
        while driver.runnable:
            pre = driver.now_us
            driver.step()
            records.append((pre, driver.now_us))
            if driver.blocked:
                break
        submit = None
        if driver.blocked:
            ticket = driver._ticket
            self.tickets[windex] = ticket
            self.service._take_pending()
            submit = (ticket.features, ticket.metadata)
        return {"records": records, "submit": submit, "finished": driver.finished}

    def deliver_results(self, windex: int, priors: np.ndarray, values: np.ndarray,
                        metadata: Optional[dict], end_us: float) -> dict:
        """Fulfil a worker's served ticket and run its next segment.

        ``metadata`` is the parent-side dict after the serve (queue delay and
        batch attribution filled in); the local ticket's dict is rewritten to
        those exact contents *in insertion order*, so the annotation snapshot
        taken when the driver closes its operation is byte-identical to the
        sequential run's.  ``end_us`` is the worker's clock after the serve.
        """
        ticket = self.tickets.pop(windex)
        if metadata is not None and ticket.metadata is not None:
            ticket.metadata.clear()
            ticket.metadata.update(metadata)
        self.stacks[windex].system.clock.advance_to(end_us)
        ticket.priors = priors
        ticket.values = values
        return self.run_segment(windex)

    # -------------------------------------------------------------- serving
    def execute(self, windex: int, replica_index: int, features: np.ndarray,
                start_us: float):
        """Run one batched engine call hosted by owned worker ``windex``.

        The parent already advanced the batch's virtual departure to
        ``start_us`` (``max(depart, replica.free_us)``); the host worker is
        blocked at its arrival time, so ``advance_to`` lands its clock on
        exactly the sequential value.  The call itself goes through the
        *real* ``InferenceService._execute`` on the shard's local service —
        same compiled-function cache, same device redirect, same kernel
        charges from the host's own cost model.
        """
        from ..rollout.inference import InferenceTicket

        host = self.stacks[windex].client
        host.system.clock.advance_to(start_us)
        ticket = InferenceTicket(host, features, None)
        replica = self.service.replicas[replica_index]
        priors, values, _ = self.service._execute(
            host, [(ticket, 0, ticket.num_rows)], replica)
        return priors, values, host.system.clock.now_us

    # ------------------------------------------------------------- finalize
    def finalize(self) -> Dict[int, object]:
        """Finalize owned profilers and return per-worker runs.

        Each run is the pool's own :class:`~repro.rollout.pool.WorkerRun`,
        without its live system.  When the pool streams traces, each shard
        closes its own writer — shard index merges are read-modify-write, so
        the parent serializes finalize calls across shards and closes its own
        (workerless) writer last.
        """
        out = {windex: replace(self.pool._finish_worker(stack, stack.profiler,
                                                        stack.driver.result), system=None)
               for windex, stack in self.stacks.items()}
        self.pool._close_store()
        return out


def handle_message(state, msg: tuple) -> tuple:
    """Dispatch one parent request to the shard; shared by both backends."""
    tag = msg[0]
    if tag == "build":
        state.shard = WorkerShard(msg[1])
        return ("built", state.shard.build())
    if tag == "results":
        _, windex, priors, values, metadata, end_us = msg
        segment = state.shard.deliver_results(windex, priors, values, metadata, end_us)
        return ("seg", windex, segment)
    if tag == "exec":
        _, exec_id, windex, replica_index, features, start_us = msg
        priors, values, end_us = state.shard.execute(windex, replica_index,
                                                     features, start_us)
        return ("exec", exec_id, priors, values, end_us)
    if tag == "finalize":
        return ("final", state.shard.finalize())
    raise ValueError(f"unknown shard message {tag!r}")


def shard_main(conn) -> None:
    """Entry point of a shard process: serve parent requests until ``stop``.

    ``("arm", n)`` schedules an injected fail-stop: the process dies via
    ``os._exit`` on its ``n``-th subsequent ``results`` message, *before*
    touching any state or replying — the batch-boundary fail-stop model.  A
    respawned process is never re-armed (the parent arms only at startup),
    so journal replay runs the same message past the crash point.
    """
    import traceback

    class _State:
        shard = None

    state = _State()
    crash_after_results: Optional[int] = None
    results_seen = 0
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg[0] == "stop":
            break
        if msg[0] == "arm":
            crash_after_results = int(msg[1])
            results_seen = 0
            conn.send(("armed",))
            continue
        if msg[0] == "results" and crash_after_results is not None:
            results_seen += 1
            if results_seen == crash_after_results:
                import os
                os._exit(1)  # fail-stop: no reply, no partial state
        try:
            conn.send(handle_message(state, msg))
        except BaseException as exc:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
            break
    conn.close()
