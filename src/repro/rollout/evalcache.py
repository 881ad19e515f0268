"""Bounded LRU cache of per-position network evaluations.

:class:`EvalCache` backs the service-side evaluation cache of
:class:`~repro.rollout.inference.InferenceService`: one entry per unique
``(weight_version, network, position_key)`` holding the network's output
row for that position.  Staleness is handled by *versioned keys* rather
than explicit flush — ``update_weights`` bumps a monotonic counter that is
part of every key, so entries written under old weights simply stop being
reachable and age out of the LRU ring (the classic staleness-accounting
problem, solved without a synchronized invalidation pass).

The cache is deliberately dumb: a plain ``OrderedDict`` in LRU order with
hit/miss/eviction counters.  All policy — what goes into a key, which rows
are eligible — lives in the service, which keeps one cache for all its
replicas, so a ticket whose rows all hit is answered at submit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

#: A cached evaluation: one output row (owned copy) plus its scalar value.
CachedRow = Tuple[np.ndarray, float]


class EvalCache:
    """Bounded LRU mapping position keys to evaluated (priors_row, value).

    ``get`` refreshes recency on a hit; ``put`` inserts (or refreshes) an
    entry and evicts the least-recently-used entries beyond ``capacity``,
    returning how many were evicted so the caller can keep its own
    eviction counters.  Both are O(1).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, CachedRow]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[CachedRow]:
        """Look up ``key``; a hit moves it to most-recently-used."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable) -> Optional[CachedRow]:
        """Look up ``key`` without touching recency or hit/miss counters."""
        return self._entries.get(key)

    def put(self, key: Hashable, priors_row: np.ndarray, value: float) -> int:
        """Insert (or refresh) an entry; returns the number of evictions."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = (priors_row, value)
            return 0
        self._entries[key] = (priors_row, value)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def keys(self):
        """Current keys, least- to most-recently-used (for tests/debugging)."""
        return list(self._entries.keys())

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EvalCache(capacity={self.capacity}, size={len(self._entries)}, "
                f"hits={self.hits}, evictions={self.evictions})")
