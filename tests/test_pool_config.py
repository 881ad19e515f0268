"""``PoolConfig``: the pools' shared options, checked once and copied to shards.

The hypothesis test draws small combinations of every option
``WorkerPool._rules`` reads, valid and invalid values alike, and runs no
pool.  For each draw it checks that:

* an independent statement of the rules below agrees with the rule table
  on whether the config is valid;
* constructing the core, a ``SelfPlayPool`` or an ``EnvRolloutPool`` raises
  ``ValueError`` exactly when a row is violated, with the first violated
  row's message, and a built pool holds the config it was given;
* a valid multiprocess pool's shard specs carry
  ``replace(config, num_processes=None, fault_plan=None)``, survive a pickle
  round trip and rebuild a valid single-process pool of the same class.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from types import SimpleNamespace
from typing import Optional
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import REPLICA_CRASH, SHARD_CRASH, FaultEvent, FaultPlan
from repro.minigo import PolicyValueNet, SelfPlayPool
from repro.parallel.shard import WorkerShard
from repro.rollout import EnvRolloutPool, InferenceService, PoolConfig, StickyRouting, WorkerPool
from repro.serving import InferenceServer


def crash_plan(*targets: int, kind: str = SHARD_CRASH) -> FaultPlan:
    return FaultPlan(events=tuple(FaultEvent(0.0, kind, target, param=2.0)
                                  for target in targets))


# Each option's values the pool accepts on their own, then the ones it never
# accepts.  A third of the draws mix both, a third take only the former, and
# a third also fix what a multiprocess pool needs, so that valid multiprocess
# configs come up often enough to exercise the shard copy.
IN_DOMAIN = {
    "num_workers": [1, 2, 3],
    "num_replicas": [1, 2],
    "inference_max_batch": [None, 1, 4],
    "routing": ["round-robin", "least-loaded", "sticky"],
    "scheduler": ["event", "sequential"],
    "batched_inference": [True, False],
    "flush_policy": ["max-batch", "timeout", "unbatched"],
    "flush_timeout_us": [None, 0.0, 50.0],
    "cache_capacity": [None, 4],
    "num_processes": [None, 1, 2],
    "process_backend": ["process", "inline"],
    "fault_plan": [None, FaultPlan(), crash_plan(0), crash_plan(1)],
}
OUT_OF_DOMAIN = {
    "num_workers": [0], "num_replicas": [0], "inference_max_batch": [0],
    "routing": ["bogus"], "scheduler": ["bogus"], "flush_policy": ["bogus"],
    "cache_capacity": [0], "num_processes": [0], "process_backend": ["threads"],
    "fault_plan": [crash_plan(0, kind=REPLICA_CRASH)],
}
MULTIPROCESS = dict(IN_DOMAIN, scheduler=["event"], batched_inference=[True],
                    cache_capacity=[None], num_processes=[1, 2])


def options_from(domain: dict, extra: Optional[dict] = None) -> st.SearchStrategy:
    extra = extra or {}
    return st.fixed_dictionaries({name: st.sampled_from(values + extra.get(name, []))
                                  for name, values in domain.items()})


OPTIONS = st.one_of(options_from(IN_DOMAIN, OUT_OF_DOMAIN), options_from(IN_DOMAIN),
                    options_from(MULTIPROCESS))

VALID_MULTIPROCESS = dict(
    num_workers=3, num_replicas=2, inference_max_batch=None, routing="sticky", scheduler="event",
    batched_inference=True, flush_policy="timeout", flush_timeout_us=50.0,
    cache_capacity=None, num_processes=2, process_backend="process",
    fault_plan=crash_plan(1))


def rules_allow(options: dict) -> bool:
    """Whether a pool accepts ``options``, stated apart from the rule table."""
    parallel = options["num_processes"] is not None
    batched = options["batched_inference"]
    plan = options["fault_plan"]
    shards = max(1, min(options["num_processes"] or 1, options["num_workers"]))
    return all([
        options["num_workers"] > 0,
        options["num_replicas"] > 0,
        options["inference_max_batch"] is None or options["inference_max_batch"] > 0,
        options["cache_capacity"] is None or options["cache_capacity"] > 0,
        not parallel or options["num_processes"] > 0,
        options["routing"] in ("round-robin", "least-loaded", "sticky"),
        options["scheduler"] in ("event", "sequential"),
        not parallel or options["process_backend"] in ("process", "inline"),
        options["flush_policy"] in ("max-batch", "timeout", "unbatched"),
        options["flush_policy"] != "timeout" or options["flush_timeout_us"] is not None,
        # No shared service to shard, batch across or cache in otherwise.
        batched or (options["num_replicas"] == 1 and options["scheduler"] != "event"
                    and options["cache_capacity"] is None),
        # Shards merge at serve boundaries and replay their own timelines.
        not parallel or (options["scheduler"] == "event"
                         and options["cache_capacity"] is None),
        # Only real shard processes can crash, and only existing ones.
        plan is None or plan.empty or (
            parallel and options["process_backend"] == "process"
            and all(event.kind == SHARD_CRASH and 0 <= event.target < shards
                    for event in plan.events)),
    ])


def check_construction(build, violated, config):
    if violated:
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == violated[0]
        return None
    pool = build()
    assert pool.config == config
    return pool


def check_shard_copy(pool):
    config = pool.config
    shard_config = replace(config, num_processes=None, fault_plan=None)
    # What the rules force on a multiprocess pool, so the shard runs with it.
    assert (shard_config.scheduler, shard_config.batched_inference,
            shard_config.cache_capacity) == ("event", True, None)
    specs = pool._shard_specs(None)
    assert sorted(index for spec in specs for index in spec.worker_indices) == \
        list(range(config.num_workers))
    for spec in specs:
        assert spec.kind == pool.kind and spec.pool_config == shard_config
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        # The shard's own rebuild, without building its workers.
        with patch.object(type(pool), "_build_workers", lambda *args: []):
            rebuilt = WorkerShard(copy).pool
        assert type(rebuilt) is type(pool)
        assert rebuilt.config == shard_config
        assert rebuilt.own_options == pool.own_options


@settings(max_examples=300, deadline=None)
@given(OPTIONS)
@example(VALID_MULTIPROCESS)
@example(dict(VALID_MULTIPROCESS, num_processes=None, process_backend="threads",
              fault_plan=None, cache_capacity=4))
def test_pools_raise_exactly_the_first_violated_rule(options):
    config = PoolConfig(**options)
    assert pickle.loads(pickle.dumps(config)) == config
    rows = WorkerPool._rules(SimpleNamespace(config=config), None)
    violated = [message for bad, message in rows if bad]
    assert (not violated) == rules_allow(options)

    check_construction(lambda: WorkerPool(config), violated, config)
    selfplay = check_construction(lambda: SelfPlayPool(**vars(config)), violated, config)
    env_violated = violated or (
        [] if config.batched_inference and config.scheduler == "event" else
        ["an env rollout pool requires batched_inference=True and the event "
         "scheduler (its workers evaluate only through the shared service; "
         "flush_policy='unbatched' serves each ticket alone)"])
    rollout = check_construction(lambda: EnvRolloutPool("Pong", **vars(config)),
                                 env_violated, config)
    if config.num_processes is not None:
        for pool in (selfplay, rollout):
            if pool is not None:
                check_shard_copy(pool)


# ------------------------------------------------------- removed options
@pytest.mark.parametrize("make_pool", [
    lambda **options: SelfPlayPool(2, batched_inference=True, **options),
    lambda **options: EnvRolloutPool("Pong", 2, **options),
], ids=["selfplay", "envrollout"])
def test_pools_take_no_cache_scope(make_pool):
    with pytest.raises(TypeError, match="cache_scope"):
        make_pool(cache_capacity=8, cache_scope="shared")


def test_routing_takes_a_policy_name_only():
    network = PolicyValueNet(5, (8,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown routing policy"):
        InferenceService(network, num_replicas=2, routing=StickyRouting())
    with pytest.raises(ValueError, match="unknown routing policy"):
        InferenceServer(network, num_replicas=2, routing=StickyRouting())
    with pytest.raises(ValueError, match="unknown routing policy"):
        SelfPlayPool(2, batched_inference=True, num_replicas=2, routing=StickyRouting())
