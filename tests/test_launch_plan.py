"""Launch plans: one per op signature, per engine, resolved against its cost model.

``BackendEngine`` resolves each op signature (op name, forward or gradient,
output shape, input shapes) once into a :class:`~repro.cuda.runtime.LaunchPlan`
and charges every later call of that signature from it.  That is only sound
because every kernels function in ``repro.backend.ops`` reads shapes and
nothing else; these tests hold the cache to a fresh kernels call on every
registered op, and check that plans never cross shapes, cost models or
devices.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import GraphEngine, Tape, use_engine
from repro.backend import functional as F
from repro.backend.ops import OPS, get_op
from repro.backend.tensor import Tensor
from repro.hw.costmodel import CostModel, CostModelConfig
from repro.hw.gpu import GPUDevice
from repro.system import System

_SHAPE = st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)


def _arrays(shapes, fill):
    return [np.full(shape, fill, dtype=np.float32) for shape in shapes]


def _check_against_fresh_kernels(engine, opdef, gradient, shapes, out_shape, fill):
    inputs, (output,) = _arrays(shapes, fill), _arrays([out_shape], fill)
    plan = engine._plan(opdef, gradient, inputs, output, {})
    kernels = (opdef.backward_kernels if gradient else opdef.kernels)(inputs, output, {})
    assert plan.kernels == tuple(kernels)
    base_us = engine.system.cuda.cost_model.kernel_base_us
    assert plan.base_us == tuple(base_us(k.flops, k.bytes_accessed) for k in kernels)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_plans_equal_fresh_kernels_for_every_op(data):
    name = data.draw(st.sampled_from(sorted(OPS)), label="op")
    # matmul and addmm read two inputs; every other kernels function reads at most one
    # input or iterates over however many it is given.
    min_inputs = 2 if name in ("matmul", "addmm") else 1
    opdef = get_op(name)
    engine = GraphEngine(System.create(seed=0))
    for _ in range(2):  # a first shape set, then another that must not reuse its plans
        shapes = data.draw(st.lists(_SHAPE, min_size=min_inputs, max_size=3), label="inputs")
        out_shape = data.draw(_SHAPE, label="output")
        for gradient in (False, True):
            # The first call resolves the plan; the second, on arrays of other
            # values but the same shapes, must be served the same kernels.
            for fill in (0.0, 3.5):
                _check_against_fresh_kernels(engine, opdef, gradient, shapes, out_shape, fill)


def _matmul(engine, rows):
    with engine.native_scope("run"):
        engine.execute_op("matmul", [np.ones((rows, 16), np.float32),
                                     np.ones((16, 4), np.float32)], {})


def _gemm_base_us(system, m, n, k):
    return system.cost_model.kernel_base_us(2.0 * m * n * k, 4 * (m * k + k * n + m * n))


def test_a_new_shape_gets_its_own_plan():
    system = System.create(seed=0, config=CostModelConfig(jitter=0.0))
    engine = GraphEngine(system)
    for rows in (8, 8, 64, 8, 64):
        _matmul(engine, rows)
    assert len(engine._plans) == 2
    for rows, kernel in zip((8, 8, 64, 8, 64), system.device.kernels()):
        assert kernel.end_us == kernel.start_us + _gemm_base_us(system, rows, 4, 16)


def test_each_cost_model_draws_its_own_kernel_durations():
    configs = (CostModelConfig(jitter=0.0, gpu_flops_per_us=1e3, gpu_kernel_fixed_us=5.0),
               CostModelConfig(jitter=0.0))
    systems = [System.create(seed=0, config=config) for config in configs]
    engines = [GraphEngine(system) for system in systems]
    for engine in engines + engines:  # the same signature, interleaved across models
        _matmul(engine, 8)
    durations = []
    for system in systems:
        expected = _gemm_base_us(system, 8, 4, 16)
        kernels = system.device.kernels()
        assert [k.end_us for k in kernels] == [k.start_us + expected for k in kernels]
        durations.append(expected)
    assert durations[0] > 3 * durations[1]


def test_a_swapped_device_receives_the_cached_plans_kernels():
    system = System.create(seed=0)
    engine = GraphEngine(system)
    home, replica = system.device, GPUDevice(cost_model=CostModel(seed=9))
    _matmul(engine, 8)
    system.cuda.device = replica
    _matmul(engine, 8)
    system.cuda.device = home
    _matmul(engine, 8)
    assert len(engine._plans) == 1
    assert [len(home.kernels()), len(replica.kernels())] == [2, 1]
    assert engine.kernel_launch_count == system.cuda.kernel_launch_count == 3


def test_gradient_ops_use_their_own_plans():
    system = System.create(seed=0)
    engine = GraphEngine(system)
    with use_engine(engine):
        x = Tensor(np.ones((8, 16), np.float32))
        w = Tensor(np.ones((16, 4), np.float32), requires_grad=True)
        for _ in range(3):
            with Tape() as tape:
                loss = F.reduce_sum(F.matmul(x, w))
            tape.gradient(loss, [w])
    names = [kernel.name for kernel in system.device.kernels()]
    assert names == ["sgemm", "reduce_sum", "grad_sum", "sgemm_dgrad", "sgemm_wgrad"] * 3
    assert sorted((name, gradient) for name, gradient, *_ in engine._plans) == [
        ("matmul", False), ("matmul", True), ("sum", False), ("sum", True)]


def test_account_op_resolves_one_plan_per_op_and_shape():
    """Optimizer and target-network updates build their kernels once per
    (op, parameter shape); every later step is charged from that plan."""
    from repro.backend import Adam
    from repro.backend.tensor import Parameter
    from repro.cuda.kernels import optimizer_kernel

    system = System.create(seed=0, config=CostModelConfig(jitter=0.0))
    engine = GraphEngine(system)
    built = []

    def kernels(size):
        built.append(size)
        return [optimizer_kernel(size, name="adam_update")]

    with engine.native_scope("step"):
        for shape in ((4, 3), (4, 3), (5,), (4, 3), (5,)):
            size = int(np.prod(shape))
            engine.account_op("adam_update", shape, lambda: kernels(size))
    assert built == [12, 5]
    assert engine.op_count == 5
    base_us = system.cost_model.kernel_base_us
    expected = [base_us(8.0 * n, 32.0 * n) for n in (12, 12, 5, 12, 5)]
    assert [k.end_us for k in system.device.kernels()] == [
        k.start_us + us for k, us in zip(system.device.kernels(), expected)]

    params = [Parameter(np.ones((4, 3), np.float32)), Parameter(np.ones((4, 3), np.float32)),
              Parameter(np.ones(7, np.float32))]
    adam = Adam(params, lr=0.1)
    with use_engine(engine):
        for _ in range(3):
            adam.step([np.ones_like(p.data) for p in params])
    assert ("adam_update", (7,)) in engine._plans
    assert sum(1 for key in engine._plans if key[0] == "adam_update") == 3
