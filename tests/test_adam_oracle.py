"""Fused Adam against the per-parameter loop it replaced.

``Adam`` and ``MPIAdam`` update every parameter in one fused pass over flat
moment vectors; the original per-parameter optimizers are kept in
``tests/oracles/adam_loop.py``.  Driven with the same gradients for 50
steps on parameters of mixed shapes, both must leave every parameter
bit-identical, charge the same virtual time, and never write into an array
a caller still holds, also when callers rebind a parameter or write one in
place between steps.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.adam_loop import LoopAdam, LoopMPIAdam
from repro.backend import Adam, GraphEngine, MPIAdam, use_engine
from repro.backend.tensor import Parameter
from repro.system import System

SHAPES = [(), (1,), (7,), (3, 4), (2, 3, 5), (16, 8)]
STEPS = 50


def _run(optimizer_cls, hyper, seed):
    rng = np.random.default_rng(seed)
    system = System.create(seed=0)
    with use_engine(GraphEngine(system)):
        params = [Parameter(rng.normal(size=shape).astype(np.float32)) for shape in SHAPES]
        optimizer = optimizer_cls(params, **hyper)
        history = []
        for step in range(STEPS):
            held = [p.data for p in params]
            snapshot = [a.copy() for a in held]
            # Alternate float32 and float64 gradients (the update casts both).
            dtype = np.float64 if step % 3 == 0 else np.float32
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape).astype(dtype)
                     for shape in SHAPES]
            optimizer.step(grads)
            if step % 7 == 3:
                # A caller rebinds one parameter and writes another in place.
                params[2].assign(params[2].data * 0.5)
                params[4].data[...] = params[4].data * 2.0
            for before, after in zip(held, snapshot):
                assert before.tobytes() == after.tobytes(), "a held array was mutated"
            history.append([p.data.tobytes() for p in params])
            assert all(p.data.dtype == np.float32 and p.data.shape == shape
                       for p, shape in zip(params, SHAPES))
    return history, system.clock.now_us


@pytest.mark.parametrize("fused,loop", [(Adam, LoopAdam), (MPIAdam, LoopMPIAdam)])
@pytest.mark.parametrize("hyper", [dict(lr=1e-3), dict(lr=0.05, beta1=0.5, beta2=0.9, eps=1e-4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_adam_is_bit_identical_to_the_loop(fused, loop, hyper, seed):
    fused_history, fused_clock = _run(fused, hyper, seed)
    loop_history, loop_clock = _run(loop, hyper, seed)
    assert fused_history == loop_history
    assert fused_clock == loop_clock


def test_fused_adam_with_no_parameters():
    with use_engine(GraphEngine(System.create(seed=0))):
        Adam([], lr=0.1).step([])
