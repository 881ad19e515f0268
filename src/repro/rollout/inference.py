"""Batched cross-worker inference service (env-agnostic rollout core).

Born as the Minigo self-play batcher and now shared by every stepwise
driver — Go self-play, the :class:`~repro.rollout.envdriver.EnvRolloutDriver`
zoo workloads, and the networked serving tier.  The module keeps its
original ``expand_leaf`` defaults so Minigo timelines stay bit-for-bit
identical; other workloads pass ``function_name=``/``forward=`` to rename
the compiled evaluator and replace the softmax policy/value head with their
own network contract.

The paper's self-play workload spends its accelerator time in ``expand_leaf``
— per-leaf, batch-size-1 network evaluations issued independently by every
MCTS worker.  Each evaluation pays the full Python -> Backend transition,
kernel-launch and feed-preparation cost for a single board position, so the
GPU runs tiny kernels back to back while the CPU spends most of its time in
dispatch: exactly the hardware-underutilizing pattern RL-Scope's breakdowns
expose (finding F.11).

:class:`InferenceService` fixes the shape of that work.  Self-play workers
submit leaf-evaluation requests (a block of feature rows each) to a shared
service holding a pool of :class:`ModelReplica`\\ s; the service coalesces
everything pending into batched network calls of up to ``max_batch`` rows,
routes each batch to a replica under a named :class:`RoutingPolicy`,
scatters the resulting policy/value rows back to the requesting workers, and
charges each waiting worker's virtual clock for the batch it rode in.

Sharding: each :class:`ModelReplica` is pinned to its own
:class:`~repro.system.System` (its own :class:`~repro.hw.gpu.GPUDevice`,
cost model, and virtual horizon) and caches its own compiled evaluation
functions — adding a replica models adding an inference GPU.  Replica 0 may
share the workload's primary device (the single-GPU configuration every
other phase contends for); further replicas get fresh devices.  Batches are
still *planned* in global arrival order — so ``num_replicas=1`` under any
routing policy reproduces the single-service timelines bit-for-bit — but
each planned batch *starts* at ``max(departure, chosen replica free time)``:
with several replicas, batches fan out and overlap instead of serializing
through one ``free_us`` horizon.  Weight updates propagate to every replica
with a virtual-time broadcast cost (:meth:`InferenceService.update_weights`).

One serving path, :meth:`InferenceService.serve_queued` (driven by the
:class:`~repro.rollout.scheduler.PoolScheduler` and the serving tier), is
plan -> route -> run.  The pure :func:`~repro.rollout.planner.plan` packs the
taken tickets in **arrival order** under an explicit flush policy
(``max-batch`` departs a batch when it is full, ``timeout`` additionally
departs a partial batch ``timeout_us`` after its first request arrived,
``unbatched`` serves each ticket alone on its own clock — the bit-for-bit
determinism baseline) and says which tickets go back on the queue;
:meth:`~InferenceService._route` picks each batch's replica (around crashed
ones when faults are armed); :meth:`~InferenceService._run_plan` starts a
queued batch at ``max(departure time, replica free time)`` and charges every
participant its own queueing delay *plus* the batch time.

Attribution: every request can carry a metadata dict which the service fills
with the serving batch shape (``batch_rows``, ``batch_clients``,
``batch_time_us``, ``engine_calls``, ``replica`` and, under the batching
policies, ``queue_delay_us``).  Workers attach that dict to their
``expand_leaf`` operation events, so the profiler can attribute shared
batched time back to the requesting workers without changing any overlap
quantity — operation-event metadata takes no part in
``compute_overlap``/``parallel_overlap``.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import functional as F
from ..backend.context import use_engine
from ..backend.engine import BackendEngine, CompiledFunction
from ..backend.tensor import Tensor
from ..cuda.kernels import FLOAT_BYTES
from ..hw.costmodel import CostModelConfig
from ..hw.gpu import GPUDevice
from ..system import System
from .evalcache import CachedRow, EvalCache
from .planner import (  # the FLUSH_* names are re-exported
    FLUSH_MAX_BATCH,
    FLUSH_POLICIES,
    FLUSH_TIMEOUT,
    FLUSH_UNBATCHED,
    BatchPlan,
    Span,
    checked_timeout_us,
    flush_deadline_us,
    plan,
)

#: Compiled-function name used for batched evaluations; matches the legacy
#: per-worker evaluator so cost-model lookups and trace names stay stable.
EVALUATE_FUNCTION_NAME = "expand_leaf"

#: Routing policies understood by :func:`make_routing_policy`.
ROUTING_ROUND_ROBIN = "round-robin"    #: cycle through replicas per batch
ROUTING_LEAST_LOADED = "least-loaded"  #: earliest-free replica per batch
ROUTING_STICKY = "sticky"              #: pin each host worker to one replica
ROUTING_POLICIES = (ROUTING_ROUND_ROBIN, ROUTING_LEAST_LOADED, ROUTING_STICKY)


class ReservoirSample:
    """Fixed-capacity uniform sample of a float stream (Vitter's algorithm R).

    Used for queue-delay percentiles: a long serving run measures one delay
    per ticket, so the raw stream grows without bound while the reservoir
    stays a constant-memory uniform sample of it.  The RNG is private and
    deterministic, so two runs with identical delay streams keep identical
    samples.
    """

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.count = 0
        self._values: List[float] = []
        self._rng = np.random.default_rng(seed)

    def append(self, value: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            slot = int(self._rng.integers(0, self.count))
            if slot < self.capacity:
                self._values[slot] = value

    @property
    def sample(self) -> List[float]:
        return list(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReservoirSample(count={self.count}, kept={len(self._values)})"


class BatchSizeStats:
    """Bounded summary of per-call batch sizes.

    Long runs issue one engine call per batch, so an unbounded list of sizes
    grows linearly with virtual time.  This keeps a fixed-size power-of-two
    histogram plus a fixed-capacity :class:`ReservoirSample` of the sizes, so
    memory stays constant no matter how many calls the service makes.
    """

    #: histogram bucket upper bounds: [1], (1,2], (2,4], ... (512,1024], (1024,inf)
    BUCKET_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def __init__(self, reservoir_size: int = 256, seed: int = 0) -> None:
        self.counts = [0] * (len(self.BUCKET_BOUNDS) + 1)
        self.total_rows = 0
        self.max_rows = 0
        self._reservoir = ReservoirSample(reservoir_size, seed)

    def append(self, rows: int) -> None:
        self.total_rows += rows
        self.max_rows = max(self.max_rows, rows)
        self.counts[bisect_right(self.BUCKET_BOUNDS, rows - 1)] += 1
        self._reservoir.append(rows)

    @property
    def count(self) -> int:
        return self._reservoir.count

    @property
    def mean(self) -> float:
        return self.total_rows / self.count if self.count else 0.0

    @property
    def sample(self) -> List[int]:
        """The reservoir: a uniform sample of all observed batch sizes."""
        return self._reservoir.sample

    def histogram(self) -> List[Tuple[int, Optional[int], int]]:
        """Non-empty buckets as ``(lo_exclusive, hi_inclusive | None, count)``."""
        buckets = []
        lo = 0
        for i, hi in enumerate(self.BUCKET_BOUNDS):
            if self.counts[i]:
                buckets.append((lo, hi, self.counts[i]))
            lo = hi
        if self.counts[-1]:
            buckets.append((lo, None, self.counts[-1]))
        return buckets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchSizeStats(count={self.count}, mean={self.mean:.2f}, "
                f"max={self.max_rows})")


@dataclass
class InferenceStats:
    """Counters describing the batching behaviour of one service or replica."""

    requests: int = 0            #: submitted tickets
    rows: int = 0                #: total feature rows evaluated
    engine_calls: int = 0        #: batched network calls issued
    max_batch_rows: int = 0      #: largest single batch
    cross_worker_batches: int = 0  #: batches serving more than one worker
    capacity: int = 0            #: the service's max_batch (occupancy denominator)
    rows_by_worker: Dict[str, int] = field(default_factory=dict)
    batch_sizes: BatchSizeStats = field(default_factory=BatchSizeStats)
    # Queueing model (serve_queued only): arrival -> batch-start delays.
    queued_waits: int = 0        #: ticket/batch participations measured
    queue_delay_us: float = 0.0  #: total arrival -> batch-start delay
    max_queue_delay_us: float = 0.0
    #: bounded uniform sample of per-ticket queue delays (percentile source)
    queue_delay_samples: ReservoirSample = field(default_factory=ReservoirSample)
    # Weight propagation (sharded services broadcast to every replica).
    weight_broadcasts: int = 0        #: update_weights calls charged
    weight_broadcast_us: float = 0.0  #: total virtual broadcast time
    # Evaluation cache (cache-enabled services only; all zero when disabled).
    cache_hits: int = 0          #: rows answered from the LRU cache, no engine work
    dedupe_rows: int = 0         #: duplicate in-batch rows folded into one engine row
    cache_evictions: int = 0     #: LRU entries evicted by inserts
    # Fault handling (fault-injected services only; all zero when no plan).
    replica_crashes: int = 0     #: fail-stop replica deaths applied
    replica_recoveries: int = 0  #: replicas brought back (weights re-broadcast)
    redispatches: int = 0        #: batches re-planned off a dying replica
    redispatched_rows: int = 0   #: rows those batches carried
    broadcast_retries: int = 0   #: failed weight copies charged twice

    @property
    def mean_batch_rows(self) -> float:
        return self.rows / self.engine_calls if self.engine_calls else 0.0

    @property
    def calls_saved(self) -> int:
        """Engine calls avoided versus the per-leaf (one call per row) path."""
        return self.rows - self.engine_calls

    @property
    def mean_occupancy(self) -> float:
        """Mean batch fill as a fraction of the service's capacity.

        Zero-batch safe: an idle service (no engine calls, or an unset
        capacity) reports 0.0 instead of dividing by zero.
        """
        if not self.capacity or not self.engine_calls:
            return 0.0
        return self.mean_batch_rows / self.capacity

    @property
    def mean_queue_delay_us(self) -> float:
        """Mean arrival -> batch-start delay (0.0 when nothing queued yet)."""
        return self.queue_delay_us / self.queued_waits if self.queued_waits else 0.0

    def queue_delay_percentiles(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
                                ) -> Optional[Dict[float, float]]:
        """Queue-delay percentiles (µs) from the bounded delay reservoir.

        Returns ``{percentile: delay_us}`` for each requested percentile
        (defaults p50/p95/p99), computed over the uniform
        :class:`ReservoirSample` of per-ticket arrival -> batch-start delays.
        Empty-service guard: returns ``None`` when no queued wait has been
        measured yet (an idle service, or one only ever served under the
        ``unbatched`` policy, which does not model queueing delay).
        """
        values = self.queue_delay_samples.sample
        if not values:
            return None
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        return {float(p): float(np.percentile(ordered, p)) for p in percentiles}

    @property
    def cross_worker_share(self) -> float:
        """Fraction of engine calls that served more than one worker.

        Zero-batch safe: 0.0 before the first engine call.
        """
        return self.cross_worker_batches / self.engine_calls if self.engine_calls else 0.0


# --------------------------------------------------------------- routing
class RoutingPolicy:
    """Chooses which :class:`ModelReplica` serves each batch.

    :class:`InferenceService` builds one from a name in
    :data:`ROUTING_POLICIES` (:func:`make_routing_policy`).  Every decision
    is counted by the chosen replica's own ``index`` in :attr:`decisions`
    (the candidates may be a healthy subset of the pool), so routing imbalance
    is visible in sweep reports.  With a single replica every policy
    degenerates to "always replica 0" — which is why ``num_replicas=1``
    reproduces single-service runs bit-for-bit under any routing policy.
    """

    name = "base"

    def __init__(self) -> None:
        self.decisions: Dict[int, int] = {}

    def select(self, replicas: Sequence["ModelReplica"], *, host_worker: str,
               depart_us: float) -> int:
        """Return the position in ``replicas`` of the one that should serve this batch."""
        raise NotImplementedError

    def choose(self, replicas: Sequence["ModelReplica"], *, host_worker: str,
               depart_us: float = 0.0) -> "ModelReplica":
        replica = replicas[self.select(replicas, host_worker=host_worker, depart_us=depart_us)]
        self.decisions[replica.index] = self.decisions.get(replica.index, 0) + 1
        return replica


class RoundRobinRouting(RoutingPolicy):
    """Cycle through replicas one batch at a time (load-oblivious)."""

    name = ROUTING_ROUND_ROBIN

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select(self, replicas, *, host_worker, depart_us):
        index = self._next % len(replicas)
        self._next = (self._next + 1) % len(replicas)
        return index


class LeastLoadedRouting(RoutingPolicy):
    """Send each batch to the replica whose horizon frees earliest.

    Ties break toward the lowest replica index, so the policy is
    deterministic under identical arrival streams.
    """

    name = ROUTING_LEAST_LOADED

    def select(self, replicas, *, host_worker, depart_us):
        return min(range(len(replicas)), key=lambda i: (replicas[i].free_us, i))


class StickyRouting(RoundRobinRouting):
    """Pin each batch-hosting worker to one replica (cache affinity).

    The first time a worker hosts a batch it is assigned the next replica
    round-robin; afterwards all batches it hosts go to the same replica, the
    configuration used for KV/feature-cache affinity experiments.  Riders
    coalesced into the batch follow the host's replica.
    """

    name = ROUTING_STICKY

    def __init__(self) -> None:
        super().__init__()
        self.assignments: Dict[str, int] = {}

    def select(self, replicas, *, host_worker, depart_us):
        index = self.assignments.get(host_worker)
        if index is None or index >= len(replicas):
            index = super().select(replicas, host_worker=host_worker, depart_us=depart_us)
            self.assignments[host_worker] = index
        return index


def make_routing_policy(routing: str) -> RoutingPolicy:
    """Build a fresh routing policy from its name."""
    for policy in (RoundRobinRouting, LeastLoadedRouting, StickyRouting):
        if routing == policy.name:
            return policy()
    raise ValueError(f"unknown routing policy {routing!r}; expected one of {ROUTING_POLICIES}")


def softmax_forward(network, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The default service forward: softmax policy rows plus value rows."""
    logits, value = network(Tensor(features))
    return F.softmax(logits).numpy(), value.numpy().reshape(-1)


class ModelReplica:
    """One model replica pinned to its own device/system.

    A replica bundles everything one inference GPU owns: a
    :class:`~repro.system.System` (virtual clock, cost model, CUDA runtime
    and :class:`~repro.hw.gpu.GPUDevice`), a private compiled-function cache
    (the model as loaded on *this* GPU), its own ``free_us`` horizon (the
    virtual time at which its last queued batch completes), and its own
    :class:`InferenceStats`.  Batches execute on the *host worker's* engine
    and clock — the CPU-side dispatch belongs to the requesting process —
    but their kernels land on the replica's device and their serialization
    point is the replica's horizon.
    """

    def __init__(self, index: int, name: str, system: System, *,
                 capacity: int, pinned: bool = True) -> None:
        self.index = index
        self.name = name
        self.system = system
        #: False only for a replica 0 with no primary device: its batches
        #: execute on each host worker's own device (the pre-sharding
        #: behaviour of a directly constructed service) instead of being
        #: redirected to this replica's device.
        self.pinned = pinned
        self.free_us = 0.0           #: horizon: when the last queued batch ends
        self.busy_us = 0.0           #: total virtual time spent serving batches
        #: False while the replica is fail-stopped by an injected fault; an
        #: unhealthy replica takes no traffic until it recovers (and current
        #: weights are re-broadcast onto its horizon first).
        self.healthy = True
        self.slow_factor = 1.0       #: >1 while an injected slowdown is active
        self.slow_until_us = 0.0     #: virtual end of the active slowdown
        self.down_us = 0.0           #: accumulated down-time over closed outages
        self.down_since_us: Optional[float] = None  #: start of the open outage
        self.stats = InferenceStats(capacity=capacity)
        self._compiled: Dict[Tuple[int, int], Tuple[CompiledFunction, object]] = {}

    @property
    def device(self) -> GPUDevice:
        return self.system.device

    def compiled_for(self, engine: BackendEngine, network, forward,
                     function_name: str = EVALUATE_FUNCTION_NAME) -> CompiledFunction:
        """This replica's compiled evaluator for (engine, network).

        Keyed by (id(engine), id(network)): safe because the cache entry
        holds strong references to both, so a cached id can never be
        recycled while the entry exists.  Each replica keeps its own cache —
        the compiled program loaded on its own GPU.
        """
        key = (id(engine), id(network))
        entry = self._compiled.get(key)
        if entry is None:
            compiled = engine.function(
                lambda features: forward(network, features),
                name=function_name, num_feeds=1)
            entry = (compiled, network)
            self._compiled[key] = entry
        return entry[0]

    def utilisation(self, span_us: float) -> float:
        """Fraction of ``span_us`` this replica spent serving batches."""
        return self.busy_us / span_us if span_us > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ModelReplica({self.name!r}, free_us={self.free_us:.1f}, "
                f"calls={self.stats.engine_calls})")


class InferenceTicket:
    """Handle for one submitted evaluation request."""

    def __init__(self, client: "InferenceClient", features: np.ndarray,
                 metadata: Optional[dict], *, arrival_us: float = 0.0, seq: int = 0) -> None:
        self.client = client
        self.features = features
        self.metadata = metadata
        self.arrival_us = arrival_us   #: submitting worker's clock at submit
        self.seq = seq                 #: service-wide submission order
        #: per-row position keys (``metadata["state_keys"]``) captured at
        #: submit on cache-enabled services; None entries bypass the cache
        self.state_keys: Optional[List[Optional[int]]] = None
        self.priors: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def done(self) -> bool:
        return self.priors is not None

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (priors, values) rows for this request, once it was served."""
        if not self.done:
            raise RuntimeError(f"ticket of {self.client.worker!r} was not served yet; "
                               "serve the queue (serve_queued) before reading it")
        return self.priors, self.values


class InferenceClient:
    """One worker's connection to the shared service.

    The client remembers the worker's system (whose clock pays for batch
    latency), engine (on which batches hosted by this client execute), and
    optionally the network its rows must be evaluated with (candidate
    evaluation serves two models from one queue; rows of different networks
    never share a matmul).
    """

    def __init__(self, service: "InferenceService", system: System,
                 engine: BackendEngine, worker: str, *, network=None) -> None:
        self.service = service
        self.system = system
        self.engine = engine
        self.worker = worker
        self.network = network if network is not None else service.network

    def submit(self, features: np.ndarray, *, metadata: Optional[dict] = None) -> InferenceTicket:
        return self.service.submit(self, features, metadata=metadata)


class InferenceService:
    """Coalesces leaf-evaluation requests from many workers into batched calls.

    The service owns ``num_replicas`` :class:`ModelReplica`\\ s sharing one
    logical model (``network``; a client may override the network, e.g. the
    candidate model during evaluation — batches never mix rows of different
    networks).  Requests queue up via :meth:`submit` and are served by
    :meth:`serve_queued` under the arrival-order queueing model and the
    caller's flush policy.  Each batch is routed to a replica by
    the service's :class:`RoutingPolicy`; per-replica stats roll up into the
    service-level :attr:`stats`.
    """

    def __init__(self, network, *, max_batch: int = 64, name: str = "inference_service",
                 num_replicas: int = 1, routing: str = ROUTING_ROUND_ROBIN,
                 primary_device: Optional[GPUDevice] = None,
                 cost_config: Optional[CostModelConfig] = None, seed: int = 0,
                 function_name: str = EVALUATE_FUNCTION_NAME,
                 forward=None, cache_capacity: Optional[int] = None) -> None:
        """``primary_device`` pins replica 0 to an existing device (the GPU
        the rest of the workload shares); further replicas always get fresh
        devices of their own.  ``cost_config``/``seed`` parameterize the
        replica systems' cost models (used for the weight-broadcast cost —
        batch durations are always sampled from the *host worker's* model,
        so adding replicas never perturbs single-replica timelines).

        ``function_name`` names the compiled batched evaluator (cost-model
        lookups and trace events carry it); it
        defaults to the Minigo ``expand_leaf``.  ``forward`` replaces the
        default policy/value head: a callable ``(network, features) ->
        (out_rows, value_rows)`` mapping a [rows, features] array to a
        [rows, K] output array plus a [rows] value array.  The default
        calls ``network(Tensor(features))`` and softmaxes the logits —
        the Minigo/discrete-policy contract.

        ``cache_capacity`` enables the service-side evaluation cache: a
        bounded LRU of network outputs keyed by ``(weight_version,
        network, position_key)``, fed by per-row ``metadata["state_keys"]``
        at submit.  Cached rows skip the engine entirely, duplicate rows
        within one batch run once and fan out to all riders, and
        ``update_weights`` bumps :attr:`weight_version` so stale entries
        become unreachable without an explicit flush; a ticket whose rows
        all hit is answered at submit.  ``cache_capacity=None`` (the
        default) disables every cache code path."""
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if cache_capacity is not None and cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive (or None to disable)")
        self.network = network
        self.max_batch = max_batch
        self.name = name
        self.function_name = function_name
        # A plain function, never a bound method: each replica caches a
        # compiled evaluator closing over it, and a bound method would tie
        # the service into a reference cycle through its own replicas.
        self._forward = forward or softmax_forward
        self.routing = make_routing_policy(routing)
        self.cache_capacity = cache_capacity
        #: monotonic weight generation; part of every cache key, so entries
        #: written under old weights become unreachable after update_weights
        self.weight_version = 0
        self.eval_cache = EvalCache(cache_capacity) if cache_capacity is not None else None
        # Cache keys embed a per-service *registration token*, not
        # ``id(network)``: an id can be recycled the moment a network is
        # garbage collected, at which point a new network allocated at the
        # same address would silently read another model's cached rows.
        # Tokens are handed out monotonically in first-submission order
        # (deterministic) and tracked through weak references, so a
        # collected network frees its slot without pinning the model alive.
        self._net_tokens: Dict[int, Tuple[int, weakref.ref]] = {}
        self._next_net_token = 0
        #: armed by :meth:`attach_fault_injector`; None keeps every serving
        #: path on its fault-free fast path, bit-identical to a build
        #: without fault support.
        self.fault_injector = None
        self._broadcast_bytes: Optional[float] = None
        self.stats = InferenceStats(capacity=max_batch)
        self._pending: List[InferenceTicket] = []
        self._seq = 0
        # O(1) queue summaries: the event-driven scheduler reads pending_rows
        # (the eager-serve memo) and the earliest arrival (the timeout
        # deadline) once per *event*, so both are maintained incrementally
        # instead of re-scanned — submissions update them in place, serves
        # mark the arrival cache dirty for a lazy recompute.
        self._pending_rows = 0
        self._earliest_arrival_us: Optional[float] = None
        self._earliest_arrival_dirty = False
        #: After a full-batches-only serve: earliest departure among the full
        #: batches held back as not yet stable (None when none were).  Lets
        #: the scheduler skip eager re-plans until virtual time reaches it.
        self.last_undue_full_depart_us: Optional[float] = None
        from .seeding import replica_seed
        self.replicas: List[ModelReplica] = []
        for index in range(num_replicas):
            replica_name = f"{name}/replica_{index}"
            pinned = True
            if index == 0:
                # Replica 0 lives on the workload's primary GPU.  Without an
                # explicit primary device it stays unpinned: batches execute
                # on each host worker's own device, exactly as the
                # pre-sharding single-replica service did.
                system = System.create(seed=replica_seed(seed, 0), config=cost_config,
                                       device=primary_device, worker=replica_name)
                pinned = primary_device is not None
            else:
                system = System.create(seed=replica_seed(seed, index), config=cost_config,
                                       worker=replica_name)
                system.device.name = f"{system.device.name}/{replica_name}"
            self.replicas.append(ModelReplica(index, replica_name, system,
                                              capacity=max_batch, pinned=pinned))

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def cache_enabled(self) -> bool:
        return self.cache_capacity is not None

    # ---------------------------------------------------------------- clients
    def connect(self, system: System, engine: BackendEngine,
                *, worker: Optional[str] = None, network=None) -> InferenceClient:
        """Register a worker; returns its client handle."""
        return InferenceClient(self, system, engine, worker or system.worker,
                               network=network)

    # ---------------------------------------------------------------- weights
    def update_weights(self, weights, *, charge: bool = True) -> float:
        """Load new weights into the model and broadcast them to every replica.

        Models the weight push after a training round: each replica receives
        the full parameter set over its host link, charged at its cost
        model's memcpy rate, starting as soon as its horizon is free.  The
        broadcast advances every replica's ``free_us`` (a replica cannot
        serve batches mid-copy) and returns the virtual broadcast span —
        first copy start to last copy end.  ``charge=False`` performs the
        load only (initial model placement before the clocks start).
        """
        self.network.load_state_dict(weights)
        # New weight generation: every cache key embeds the version, so all
        # entries written under the old weights are now unreachable (they age
        # out of the LRU ring instead of being flushed synchronously).
        self.weight_version += 1
        if not charge:
            return 0.0
        arrays = weights.values() if hasattr(weights, "values") else weights
        num_bytes = float(sum(FLOAT_BYTES * np.asarray(w).size for w in arrays))
        self._broadcast_bytes = num_bytes
        injector = self.fault_injector
        begin_us = min(replica.free_us for replica in self.replicas)
        end_us = begin_us
        for replica in self.replicas:
            if injector is not None and not replica.healthy:
                # A dead replica misses the push; recovery re-broadcasts the
                # then-current weights before it takes traffic again.
                injector.record(begin_us, "broadcast-skipped", replica.index,
                                "replica down; weights land on recovery")
                continue
            copy_us = replica.system.cost_model.memcpy_duration(num_bytes)
            replica.free_us += copy_us
            replica.stats.weight_broadcasts += 1
            replica.stats.weight_broadcast_us += copy_us
            if injector is not None:
                for event in injector.take_broadcast_failures(
                        replica.index, replica.free_us):
                    # The failed copy is retried back to back: charged twice.
                    replica.free_us += copy_us
                    replica.stats.weight_broadcast_us += copy_us
                    self.stats.broadcast_retries += 1
                    replica.stats.broadcast_retries += 1
                    injector.record(event.time_us, "broadcast-fail", replica.index,
                                    f"copy retried ({copy_us:.3f}us)")
            end_us = max(end_us, replica.free_us)
        span_us = end_us - begin_us
        self.stats.weight_broadcasts += 1
        self.stats.weight_broadcast_us += span_us
        return span_us

    # ---------------------------------------------------------------- faults
    def attach_fault_injector(self, injector) -> None:
        """Arm fault injection: replica events from the injector's plan are
        applied as virtual time reaches them (see :meth:`apply_due_faults`),
        batches route around unhealthy replicas, and batches planned onto a
        horizon that dies before they start re-dispatch onto the survivors.
        Never attached (the default) keeps every path fault-free and
        bit-identical."""
        self.fault_injector = injector

    def healthy_replicas(self) -> List[ModelReplica]:
        return [replica for replica in self.replicas if replica.healthy]

    def capacity_lost_us(self, until_us: float) -> float:
        """Replica-microseconds of capacity lost to outages up to ``until_us``.

        Sums every closed outage plus the elapsed part of any still-open one
        (a replica down at ``until_us`` contributes only the span it has
        actually been down for).
        """
        lost = 0.0
        for replica in self.replicas:
            lost += replica.down_us
            if replica.down_since_us is not None:
                lost += max(0.0, until_us - replica.down_since_us)
        return lost

    def availability(self, until_us: float) -> float:
        """Fraction of pool capacity that was up over ``[0, until_us]``."""
        if until_us <= 0.0:
            return 1.0
        total = until_us * len(self.replicas)
        return 1.0 - self.capacity_lost_us(until_us) / total

    def apply_due_faults(self, now_us: float) -> None:
        """Apply every replica-pool fault scheduled at or before ``now_us``."""
        injector = self.fault_injector
        if injector is None:
            return
        for event in injector.due_replica_events(now_us):
            self._apply_fault(event)

    def _apply_fault(self, event) -> None:
        from ..faults.plan import REPLICA_CRASH, REPLICA_RECOVER, REPLICA_SLOW
        if event.kind == REPLICA_CRASH:
            self.fail_replica(event.target, event.time_us)
        elif event.kind == REPLICA_RECOVER:
            self.recover_replica(event.target, event.time_us)
        elif event.kind == REPLICA_SLOW:
            self.slow_replica(event.target, event.time_us, event.param,
                              event.duration_us)

    def fail_replica(self, index: int, now_us: float) -> bool:
        """Fail-stop a replica at a batch boundary.

        The last healthy replica refuses to die (logged as ``crash-skipped``)
        so the pool always makes progress; queued work is untouched — the
        global arrival-order queue holds it, and planning simply never routes
        to an unhealthy replica — while work already planned onto the dead
        horizon re-dispatches via :meth:`_route`.
        """
        replica = self.replicas[index]
        injector = self.fault_injector
        if not replica.healthy:
            return False
        if len(self.healthy_replicas()) <= 1:
            if injector is not None:
                injector.record(now_us, "crash-skipped", index,
                                "last healthy replica")
            return False
        replica.healthy = False
        replica.down_since_us = now_us
        self.stats.replica_crashes += 1
        replica.stats.replica_crashes += 1
        if injector is not None:
            injector.record(now_us, "replica-crash", index,
                            f"healthy={len(self.healthy_replicas())}/{len(self.replicas)}")
        return True

    def recover_replica(self, index: int, now_us: float) -> bool:
        """Bring a dead replica back: re-broadcast current weights onto its
        horizon (charged at its memcpy rate), then let it take traffic."""
        replica = self.replicas[index]
        injector = self.fault_injector
        if replica.healthy:
            if injector is not None:
                injector.record(now_us, "recover-skipped", index, "already healthy")
            return False
        replica.healthy = True
        if replica.down_since_us is not None:
            replica.down_us += max(0.0, now_us - replica.down_since_us)
            replica.down_since_us = None
        replica.free_us = max(replica.free_us, now_us)
        copy_us = 0.0
        num_bytes = self._weight_footprint_bytes()
        if num_bytes > 0.0:
            copy_us = replica.system.cost_model.memcpy_duration(num_bytes)
            replica.free_us += copy_us
            replica.stats.weight_broadcasts += 1
            replica.stats.weight_broadcast_us += copy_us
        self.stats.replica_recoveries += 1
        replica.stats.replica_recoveries += 1
        if injector is not None:
            injector.record(now_us, "replica-recover", index,
                            f"rebroadcast_us={copy_us:.3f} "
                            f"healthy={len(self.healthy_replicas())}/{len(self.replicas)}")
        return True

    def slow_replica(self, index: int, now_us: float, factor: float,
                     duration_us: float) -> None:
        """Degrade a replica: batches starting inside the span run
        ``factor``x longer (extra time charged on the host clock)."""
        replica = self.replicas[index]
        replica.slow_factor = factor
        replica.slow_until_us = now_us + duration_us
        if self.fault_injector is not None:
            self.fault_injector.record(now_us, "replica-slow", index,
                                       f"factor={factor:g} until={replica.slow_until_us:.3f}")

    def _weight_footprint_bytes(self) -> float:
        """Bytes one replica receives in a weight (re-)broadcast."""
        if self._broadcast_bytes is None:
            try:
                state = self.network.state_dict()
            except AttributeError:
                self._broadcast_bytes = 0.0
            else:
                arrays = state.values() if hasattr(state, "values") else state
                self._broadcast_bytes = float(
                    sum(FLOAT_BYTES * np.asarray(w).size for w in arrays))
        return self._broadcast_bytes

    def _route(self, host: "InferenceClient", depart_us: float,
               rows: int) -> Tuple[ModelReplica, float]:
        """Pick the replica for a batch of ``rows`` rows departing at ``depart_us``.

        Without a fault injector the routing policy picks from the whole
        pool.  With one, due faults are applied first and the policy picks
        among the healthy replicas (the whole pool while all are healthy,
        so the fault-free decision stream is unchanged).  If the chosen
        replica's next scheduled event is a crash landing at or before the
        batch's start on its horizon, these rows are exactly the dead
        replica's queued/in-flight work: the crash is applied now, a
        ``redispatch`` decision is logged, the re-dispatch latency is
        charged onto a new departure, and routing repeats over the
        survivors.  Batches run in planned (arrival) order, so re-dispatches
        replay in arrival order too.  Returns the replica and the (possibly
        later) departure.
        """
        injector = self.fault_injector
        if injector is None:
            return self.routing.choose(self.replicas, host_worker=host.worker,
                                       depart_us=depart_us), depart_us
        self.apply_due_faults(depart_us)
        while True:
            replica = self.routing.choose(self.healthy_replicas(), host_worker=host.worker,
                                          depart_us=depart_us)
            crash = injector.peek_crash(replica.index, max(depart_us, replica.free_us))
            if crash is None:
                return replica, depart_us
            injector.consume(crash)
            if self.fail_replica(crash.target, crash.time_us):
                self.stats.redispatches += 1
                self.stats.redispatched_rows += rows
                depart_us = max(depart_us, crash.time_us) + injector.plan.redispatch_latency_us
                injector.record(crash.time_us, "redispatch", crash.target,
                                f"rows={rows} new_depart={depart_us:.3f}")

    # ----------------------------------------------------------------- queue
    def submit(self, client: InferenceClient, features: np.ndarray,
               *, metadata: Optional[dict] = None) -> InferenceTicket:
        """Queue a block of feature rows for batched evaluation.

        ``metadata`` is held **by reference**, intentionally: the service
        writes batch attribution (``batch_rows``, ``queue_delay_us``,
        ``completion_us``, ...) into the *caller's* dict so an open profiler
        annotation created before the submit observes the attribution of the
        batch that eventually serves it.  The flip side of that contract is
        that a dict must never be shared between submissions — two tickets
        writing into one dict alias each other's attribution.  Callers that
        re-issue work (e.g. the serving tier's retry path) must pass a fresh
        dict per submission; :mod:`repro.serving.protocol` enforces this
        structurally by rebuilding the metadata dict at every wire decode.

        On a cache-enabled service, ``metadata["state_keys"]`` (one
        optional position key per feature row) makes the rows cacheable.
        A ticket whose rows *all* hit is fulfilled right here — it never
        enters the queue and its caller sees ``ticket.done`` immediately.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"expected a non-empty [rows, features] array, got shape {features.shape}")
        ticket = InferenceTicket(client, features, metadata,
                                 arrival_us=client.system.clock.now_us, seq=self._seq)
        self._seq += 1
        self.stats.requests += 1
        if self.cache_capacity is not None:
            ticket.state_keys = self._extract_state_keys(metadata, ticket.num_rows)
            if ticket.state_keys is not None:
                self._network_token(client.network)
                if self._fulfil_at_submit(ticket):
                    return ticket
        self._pending.append(ticket)
        self._pending_rows += ticket.num_rows
        if not self._earliest_arrival_dirty:
            if self._earliest_arrival_us is None or ticket.arrival_us < self._earliest_arrival_us:
                self._earliest_arrival_us = ticket.arrival_us
        return ticket

    @staticmethod
    def _extract_state_keys(metadata: Optional[dict], num_rows: int
                            ) -> Optional[List[Optional[int]]]:
        """Capture per-row position keys from the submission metadata."""
        if metadata is None:
            return None
        keys = metadata.get("state_keys")
        if keys is None:
            return None
        keys = list(keys)
        if len(keys) != num_rows:
            raise ValueError(f"metadata['state_keys'] has {len(keys)} entries "
                             f"for {num_rows} feature rows")
        return keys

    def _network_token(self, network) -> int:
        """The stable per-service token identifying ``network`` in cache keys.

        ``id(network)`` only indexes the registry; an entry is trusted iff
        its weak reference still points at *this* network, so a new network
        allocated at a recycled id gets a fresh token (and therefore fresh
        cache keys) instead of inheriting the dead model's entries.  A
        collected network's registry slot is purged by its weakref callback,
        guarded so it never evicts a successor that already claimed the id.
        """
        addr = id(network)
        entry = self._net_tokens.get(addr)
        if entry is not None and entry[1]() is network:
            return entry[0]
        token = self._next_net_token
        self._next_net_token += 1

        def purge(ref, *, addr=addr, token=token, registry=self._net_tokens):
            current = registry.get(addr)
            if current is not None and current[0] == token:
                del registry[addr]

        self._net_tokens[addr] = (token, weakref.ref(network, purge))
        return token

    def _cache_key(self, client: InferenceClient, state_key: Optional[int]
                   ) -> Optional[Tuple[int, int, int]]:
        """Full cache key for one row: (weight generation, network, position)."""
        if state_key is None:
            return None
        return (self.weight_version, self._network_token(client.network), state_key)

    def _fulfil_at_submit(self, ticket: InferenceTicket) -> bool:
        """Answer a whole ticket from the cache, skipping the queue.

        Only when *every* row hits — partial hits wait for batch planning,
        where :meth:`_run_batch` resolves them row by row.  Submit-time hits
        land on the aggregate :attr:`stats` only: no replica was involved.
        """
        if self.eval_cache is None:
            return False
        assert ticket.state_keys is not None
        keys = [self._cache_key(ticket.client, key) for key in ticket.state_keys]
        if any(key is None or key not in self.eval_cache for key in keys):
            return False
        entries = [self.eval_cache.get(key) for key in keys]
        ticket.priors = np.stack([entry[0] for entry in entries], axis=0)
        ticket.values = np.asarray([entry[1] for entry in entries])
        self.stats.cache_hits += ticket.num_rows
        if ticket.metadata is not None:
            meta = ticket.metadata
            meta["inference_service"] = self.name
            meta["cache_hits"] = meta.get("cache_hits", 0) + ticket.num_rows
            meta["completion_us"] = max(meta.get("completion_us", 0.0),
                                        ticket.client.system.clock.now_us)
        return True

    @property
    def pending_rows(self) -> int:
        return self._pending_rows

    @property
    def pending_tickets(self) -> int:
        return len(self._pending)

    def earliest_pending_arrival_us(self) -> Optional[float]:
        """Arrival time of the oldest queued request (None when idle).

        O(1) amortized: submissions fold their arrival into a running
        minimum; only a serve (which removes arbitrary tickets) forces the
        next call to rescan the much-shrunken queue.
        """
        if not self._pending:
            return None
        if self._earliest_arrival_dirty:
            self._earliest_arrival_us = min(ticket.arrival_us for ticket in self._pending)
            self._earliest_arrival_dirty = False
        return self._earliest_arrival_us

    def _requeue(self, tickets: Iterable[InferenceTicket]) -> None:
        """Put held-back tickets back on the queue, keeping summaries right."""
        for ticket in tickets:
            self._pending.append(ticket)
            self._pending_rows += ticket.num_rows
        self._earliest_arrival_dirty = True

    def drop_pending(self, predicate) -> List[InferenceTicket]:
        """Shed hook: remove queued tickets matching ``predicate`` (load shedding).

        The serving tier's overload policies (shed-oldest, deadline-drop)
        evict requests from the ingress queue; this removes the matching
        tickets while keeping the O(1) queue summaries consistent.  Only
        *pending* tickets are touchable: a batch that has departed was
        removed from the queue when it was planned, so shedding can never
        claw back rows that are already being served — the "deadline-drop
        racing a departing batch" case resolves in the batch's favour by
        construction.  Returns the dropped tickets (queue order) so the
        caller can route shed replies; their stats were counted at submit
        time and are otherwise untouched.
        """
        kept: List[InferenceTicket] = []
        dropped: List[InferenceTicket] = []
        for ticket in self._pending:
            (dropped if predicate(ticket) else kept).append(ticket)
        if dropped:
            self._pending = kept
            self._pending_rows = sum(t.num_rows for t in kept)
            self._earliest_arrival_us = None
            self._earliest_arrival_dirty = bool(kept)
        return dropped

    def _take_pending(self, arrival_cutoff_us: Optional[float] = None
                      ) -> List[List[InferenceTicket]]:
        """Drain the queue into per-network ticket groups (queue order).

        With ``arrival_cutoff_us`` only tickets that arrived at or before the
        cutoff are taken; later ones stay queued (they can still gather more
        riders before their own deadline)."""
        cutoff = math.inf if arrival_cutoff_us is None else arrival_cutoff_us
        groups: Dict[int, List[InferenceTicket]] = {}
        for ticket in self.drop_pending(lambda t: t.arrival_us <= cutoff):
            groups.setdefault(id(ticket.client.network), []).append(ticket)
        return list(groups.values())

    # ------------------------------------------------------- queued serving
    def serve_queued(self, *, policy: str = FLUSH_MAX_BATCH,
                     timeout_us: Optional[float] = None,
                     arrival_cutoff_us: Optional[float] = None,
                     full_batches_only: bool = False,
                     stable_before_us: Optional[float] = None) -> int:
        """Serve everything pending under the arrival-order queueing model.

        Take the queue (only tickets that arrived by ``arrival_cutoff_us``,
        when given), :func:`~repro.rollout.planner.plan` it, re-queue the
        tickets the plan holds, then run every planned batch
        (:meth:`_run_plan`).  The planner's docstring gives the packing and
        hold rules: batches depart when full or, under ``timeout``, at their
        first rider's deadline; ``full_batches_only`` (the replica-aware
        eager path) runs only full batches departing by ``stable_before_us``
        and leaves the earliest later one in
        :attr:`last_undue_full_depart_us`; ``unbatched`` runs each ticket
        alone on its own clock — the determinism baseline.  Returns the
        number of batches run.
        """
        # Checked before the queue is taken: a bad setting must not drop it.
        timeout_us = checked_timeout_us(policy, timeout_us)
        served = plan(self._take_pending(arrival_cutoff_us), max_batch=self.max_batch,
                      policy=policy, timeout_us=timeout_us, arrival_cutoff_us=arrival_cutoff_us,
                      full_batches_only=full_batches_only, stable_before_us=stable_before_us)
        if full_batches_only:
            self.last_undue_full_depart_us = served.undue_full_depart_us
        self._requeue(served.held)
        for batch in served.batches:
            self._run_plan(batch)
        return len(served.batches)

    def full_batch_pending(self) -> bool:
        """Whether the queue holds at least ``max_batch`` rows.

        A full batch can only be planned when it does, so callers skip
        a ``full_batches_only`` serve (and its re-plan) while it does not.
        """
        return self._pending_rows >= self.max_batch

    def pending_deadline_us(self, timeout_us: Optional[float]) -> Optional[float]:
        """When the oldest pending request's partial batch times out under a
        ``timeout_us`` timeout (None without a timeout or when idle)."""
        if timeout_us is None:
            return None
        return flush_deadline_us(self.earliest_pending_arrival_us(), timeout_us)

    def _run_plan(self, batch: BatchPlan) -> None:
        """Route and run one planned batch, then hand its rows back.

        A queued plan (one with a departure) starts at ``max(departure,
        replica free time)``: its host worker's clock waits for the start,
        an injected slowdown stretches the batch, every rider's clock
        advances to the batch's end and each ticket is charged its queueing
        delay.  An ``unbatched`` plan (departure None) skips all of that and
        runs at once on its host's clock.  Either way each ticket's metadata
        gets the batch's end as ``completion_us``.
        """
        spans, rows = batch.spans, batch.rows
        host = spans[0][0].client
        queued = batch.depart_us is not None
        depart_us = batch.depart_us if queued else host.system.clock.now_us
        replica, depart_us = self._route(host, depart_us, rows)
        if queued:
            # The host worker (first requester) waits for the batch to start.
            host.system.clock.advance_to(max(depart_us, replica.free_us))
        start_us = host.system.clock.now_us  # host may already be past depart
        priors, values, batch_time_us, engine_rows = self._run_batch(host, spans, rows, replica)
        if (queued and self.fault_injector is not None and replica.slow_factor > 1.0
                and start_us < replica.slow_until_us and batch_time_us > 0.0):
            # An injected slowdown stretches the batch; the extra time is
            # real wall (virtual) time on the host clock.
            extra_us = (replica.slow_factor - 1.0) * batch_time_us
            host.system.clock.advance(extra_us)
            batch_time_us += extra_us
        end_us = host.system.clock.now_us
        replica.free_us = max(replica.free_us, end_us)
        replica.busy_us += batch_time_us
        clients = {id(t.client): t.client for t, _, _ in spans}
        if queued:
            # Every rider waits for the batch to finish: wait + batch time,
            # each from its own arrival, inside its own (open) annotation.
            for client in clients.values():
                if client is not host:
                    client.system.clock.advance_to(end_us)
        for ticket in dict.fromkeys(t for t, _, _ in spans):
            meta = ticket.metadata
            if queued:
                delay = max(start_us - ticket.arrival_us, 0.0)
                for stats in (self.stats, replica.stats):
                    stats.queued_waits += 1
                    stats.queue_delay_us += delay
                    stats.max_queue_delay_us = max(stats.max_queue_delay_us, delay)
                    stats.queue_delay_samples.append(delay)
                if meta is not None:
                    meta["queue_delay_us"] = meta.get("queue_delay_us", 0.0) + delay
            if meta is not None:
                # Batch completion in virtual time; a split ticket keeps the
                # end of its last-served batch (the serving tier's reply
                # timestamp and deadline check read this).
                meta["completion_us"] = max(meta.get("completion_us", 0.0), end_us)
        self._scatter(spans, rows, engine_rows, priors, values, batch_time_us,
                      len(clients), replica)

    # -------------------------------------------------------- shared helpers
    def _run_batch(self, host: InferenceClient,
                   chunk: List[Span], rows: int,
                   replica: ModelReplica) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """Run one planned chunk, resolving cache hits and in-batch duplicates.

        With the cache disabled this is exactly one :meth:`_execute` call.
        With it enabled, each keyed row is either answered from the LRU
        cache (a *hit*), folded into the first identical row of the chunk
        (a *dedupe rider*), or executed; only the executed rows reach the
        engine — as a sub-chunk of the original spans, so the overridable
        :meth:`_execute` signature is untouched — and freshly executed
        keyed rows enter the cache.  Returns ``(priors, values,
        batch_time_us, engine_rows)`` covering all ``rows`` of the chunk;
        ``engine_rows`` is what the engine actually evaluated (``rows``
        when the cache is off, 0 for an all-hit chunk, which issues no
        engine call at all).
        """
        cache = self.eval_cache
        if cache is None:
            priors, values, batch_time_us = self._execute(host, chunk, replica)
            return priors, values, batch_time_us, rows
        row_keys: List[Optional[Tuple[int, int, int]]] = []
        for ticket, lo, hi in chunk:
            keys = ticket.state_keys
            for row in range(lo, hi):
                state_key = keys[row] if keys is not None else None
                row_keys.append(self._cache_key(ticket.client, state_key))
        hit_entries: Dict[int, CachedRow] = {}
        canonical: List[int] = []       # batch-row indices the engine must run
        rider_of: Dict[int, int] = {}   # duplicate batch row -> its canonical row
        first_seen: Dict[Tuple[int, int, int], int] = {}
        for index, key in enumerate(row_keys):
            if key is None:
                canonical.append(index)
                continue
            entry = cache.get(key)
            if entry is not None:
                hit_entries[index] = entry
                continue
            seen = first_seen.get(key)
            if seen is None:
                first_seen[key] = index
                canonical.append(index)
            else:
                rider_of[index] = seen
        batch_time_us = 0.0
        sub_priors = sub_values = None
        if canonical:
            sub_chunk = self._sub_chunk(chunk, canonical)
            sub_priors, sub_values, batch_time_us = self._execute(host, sub_chunk, replica)
        if sub_priors is not None:
            width, pdtype, vdtype = sub_priors.shape[1], sub_priors.dtype, sub_values.dtype
        else:  # every row hit: shape/dtype come from any cached entry
            prior_row, value = next(iter(hit_entries.values()))
            width, pdtype, vdtype = prior_row.shape[0], prior_row.dtype, np.asarray(value).dtype
        priors = np.empty((rows, width), dtype=pdtype)
        values = np.empty(rows, dtype=vdtype)
        for position, index in enumerate(canonical):
            priors[index] = sub_priors[position]
            values[index] = sub_values[position]
        for index, source in rider_of.items():
            priors[index] = priors[source]
            values[index] = values[source]
        for index, (prior_row, value) in hit_entries.items():
            priors[index] = prior_row
            values[index] = value
        evictions = 0
        for index in canonical:
            key = row_keys[index]
            if key is not None:
                evictions += cache.put(key, priors[index].copy(), values[index])
        for stats in (self.stats, replica.stats):
            stats.cache_hits += len(hit_entries)
            stats.dedupe_rows += len(rider_of)
            stats.cache_evictions += evictions
        if hit_entries or rider_of:
            self._attribute_cache_rows(chunk, hit_entries, rider_of)
        return priors, values, batch_time_us, len(canonical)

    @staticmethod
    def _sub_chunk(chunk: List[Span],
                   canonical: List[int]) -> List[Span]:
        """Spans covering only the selected batch-row indices (order kept).

        ``canonical`` is strictly increasing, so one forward sweep over the
        original spans suffices; adjacent selected rows of one ticket merge
        back into a single span.
        """
        sub: List[Span] = []
        bounds = []  # (ticket, first batch row of this span, lo)
        base = 0
        for ticket, lo, hi in chunk:
            bounds.append((ticket, base, lo, hi))
            base += hi - lo
        cursor = 0
        for index in canonical:
            while True:
                ticket, row_base, lo, hi = bounds[cursor]
                if index < row_base + (hi - lo):
                    break
                cursor += 1
            row = lo + (index - row_base)
            if sub and sub[-1][0] is ticket and sub[-1][2] == row:
                sub[-1] = (ticket, sub[-1][1], row + 1)
            else:
                sub.append((ticket, row, row + 1))
        return sub

    @staticmethod
    def _attribute_cache_rows(chunk: List[Span],
                              hit_entries: Dict[int, CachedRow],
                              rider_of: Dict[int, int]) -> None:
        """Count each ticket's cached/deduped rows into its metadata dict."""
        base = 0
        for ticket, lo, hi in chunk:
            take = hi - lo
            if ticket.metadata is not None:
                hits = sum(1 for index in hit_entries if base <= index < base + take)
                dupes = sum(1 for index in rider_of if base <= index < base + take)
                if hits:
                    ticket.metadata["cache_hits"] = ticket.metadata.get("cache_hits", 0) + hits
                if dupes:
                    ticket.metadata["dedupe_rows"] = ticket.metadata.get("dedupe_rows", 0) + dupes
            base += take

    def _execute(self, host: InferenceClient, chunk: List[Span],
                 replica: ModelReplica) -> Tuple[np.ndarray, np.ndarray, float]:
        """One batched engine call on the host's engine/clock, on the replica's device.

        The CPU side (dispatch, launches, syncs) runs on the host worker's
        engine and cost model — its process issues the call — while the
        kernels and memcpys land on the serving replica's device: the host's
        CUDA runtime is pointed at that device for the duration of the call.
        With replica 0 on the workload's primary device this is a no-op, and
        an *unpinned* replica 0 (no primary device given) skips the redirect
        entirely — kernels stay on the host's own device, as before
        sharding — so single-replica timelines are unchanged either way.
        """
        features = np.concatenate([t.features[lo:hi] for t, lo, hi in chunk], axis=0)
        compiled = replica.compiled_for(host.engine, host.network, self._forward,
                                        function_name=self.function_name)
        cuda = host.system.cuda
        saved_device = cuda.device
        if replica.pinned:
            cuda.device = replica.device
        start_us = host.system.clock.now_us
        try:
            with use_engine(host.engine):
                priors, values = compiled(features)
        finally:
            cuda.device = saved_device
        return priors, values, host.system.clock.now_us - start_us

    def _scatter(self, chunk: List[Span], rows: int, engine_rows: int,
                 priors: np.ndarray, values: np.ndarray, batch_time_us: float,
                 num_clients: int, replica: ModelReplica) -> None:
        """Record stats for one served batch and hand rows back to its tickets.

        ``engine_rows`` is how many of the chunk's rows the engine actually
        evaluated (cache hits and dedupe riders subtracted); 0 means no
        engine call was issued at all, so none of the per-call counters (nor
        the batch-size reservoir, whose RNG stream is pinned) may advance.
        """
        # The service aggregate and the serving replica's stats advance in
        # lock-step (aggregate first, so its reservoir RNG stream matches
        # the pre-sharding single-stats service draw for draw).
        if engine_rows:
            for stats in (self.stats, replica.stats):
                stats.engine_calls += 1
                stats.rows += engine_rows
                stats.max_batch_rows = max(stats.max_batch_rows, engine_rows)
                stats.batch_sizes.append(engine_rows)
                if num_clients > 1:
                    stats.cross_worker_batches += 1

        offset = 0
        for ticket, lo, hi in chunk:
            take = hi - lo
            worker = ticket.client.worker
            for stats in (self.stats, replica.stats):
                stats.rows_by_worker[worker] = stats.rows_by_worker.get(worker, 0) + take
            if ticket.priors is None:
                # First chunk serving this ticket (split tickets count once,
                # attributed to the replica that served their head rows).
                replica.stats.requests += 1
            prior_rows = priors[offset:offset + take]
            value_rows = values[offset:offset + take]
            if ticket.priors is None:
                ticket.priors, ticket.values = prior_rows, value_rows
            else:  # ticket split across chunks
                ticket.priors = np.concatenate([ticket.priors, prior_rows], axis=0)
                ticket.values = np.concatenate([ticket.values, value_rows], axis=0)
            if ticket.metadata is not None:
                meta = ticket.metadata
                meta["inference_service"] = self.name
                meta["batch_rows"] = meta.get("batch_rows", 0) + rows
                meta["batch_clients"] = max(meta.get("batch_clients", 0), num_clients)
                meta["batch_time_us"] = meta.get("batch_time_us", 0.0) + batch_time_us
                meta["engine_calls"] = meta.get("engine_calls", 0) + (1 if engine_rows else 0)
                meta["replica"] = replica.index
            offset += take

    # ------------------------------------------------------------- reporting
    def replica_utilisation(self, span_us: float) -> List[float]:
        """Per-replica busy fraction of ``span_us`` (index-aligned)."""
        return [replica.utilisation(span_us) for replica in self.replicas]

    def routing_decisions(self) -> List[int]:
        """Per-replica routed-batch counts (index-aligned)."""
        return [self.routing.decisions.get(replica.index, 0) for replica in self.replicas]
