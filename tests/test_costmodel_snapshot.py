"""Snapshot and restore of a cost model's block-drawn jitter stream.

A :class:`~repro.hw.costmodel.CostModel` draws standard normals
:data:`~repro.hw.costmodel.JITTER_BLOCK` at a time, so its generator runs
ahead of the draws it has handed out.  A snapshot must therefore carry the
drawn block and its cursor as well as the generator state; self-play and
env-rollout drivers save and restore it across processes (shard crash
recovery) through ``rng_state`` / ``set_rng_state``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.hw.costmodel import JITTER_BLOCK, CostModel, CostModelConfig


def draws(model: CostModel, count: int):
    return [model.python_work(1.0) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_block_draws_match_scalar_normal_draws(seed):
    model = CostModel(seed=seed)
    rng = np.random.default_rng(seed)
    expected = [float(0.9 * max(1.0 + rng.normal(0.0, 0.02), 0.05)) for _ in range(5000)]
    assert draws(model, 5000) == expected


@pytest.mark.parametrize("drawn", [0, 1, JITTER_BLOCK // 3, JITTER_BLOCK - 1, JITTER_BLOCK])
def test_state_restored_into_a_fresh_model_continues_the_stream(drawn):
    original = CostModel(seed=11)
    draws(original, drawn)
    state = original.rng_state()
    restored = CostModel(seed=12345)
    restored.set_rng_state(pickle.loads(pickle.dumps(state)))
    assert draws(restored, 3 * JITTER_BLOCK) == draws(original, 3 * JITTER_BLOCK)


def test_snapshot_is_not_aliased_to_the_live_stream():
    model = CostModel(seed=3)
    draws(model, 10)
    state = model.rng_state()
    expected = draws(model, 2 * JITTER_BLOCK)
    draws(model, 7)
    model.set_rng_state(state)
    assert draws(model, 2 * JITTER_BLOCK) == expected


def test_generator_state_alone_does_not_resume_mid_block():
    # Why the snapshot carries the block: the generator is a block ahead.
    original = CostModel(seed=11)
    draws(original, JITTER_BLOCK // 3)
    restored = CostModel(seed=11)
    restored.set_rng_state({"bit_generator": original.rng_state()["bit_generator"],
                            "block": [], "cursor": 0})
    assert draws(restored, 5) != draws(original, 5)


def test_zero_jitter_and_zero_costs_draw_nothing():
    quiet = CostModel(CostModelConfig(jitter=0.0), seed=1)
    assert draws(quiet, 5) == [0.9] * 5
    model = CostModel(seed=1)
    assert model.python_work(0.0) == 0.0
    assert model.rng_state()["block"] == [] and model.rng_state()["cursor"] == 0
