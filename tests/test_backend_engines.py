"""Tests for execution engines: native-call semantics, layers, optimizers."""

import numpy as np
import pytest

from repro.backend import (
    Adam,
    AutographEngine,
    EagerEngine,
    GraphEngine,
    MLP,
    MPIAdam,
    PyTorchEagerEngine,
    Tape,
    functional as F,
    hard_update,
    soft_update,
    use_engine,
)
from repro.backend.context import clear_engines, current_engine, maybe_current_engine, set_default_engine
from repro.backend.layers import Dense
from repro.backend.tensor import Parameter, Tensor, assign_flat_params, flatten_params, parameter_count
from repro.system import System


# ------------------------------------------------------------------ context
def test_current_engine_requires_activation():
    clear_engines()
    assert maybe_current_engine() is None
    with pytest.raises(RuntimeError):
        current_engine()
    engine = EagerEngine(System.create())
    set_default_engine(engine)
    assert current_engine() is engine


# -------------------------------------------------------------------- eager
def test_eager_each_op_is_a_native_call(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        y = F.relu(F.add(x, x))
    assert engine.native_call_count == 2
    assert engine.op_count == 2
    assert np.allclose(y.numpy(), 2.0)


def test_eager_backward_is_one_native_call(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        net = MLP(4, [8], 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 4), dtype=np.float32))
        with Tape() as tape:
            loss = F.reduce_mean(F.square(net(x)))
        forward_calls = engine.native_call_count
        tape.gradient(loss, net.parameters())
        assert engine.native_call_count == forward_calls + 1


def test_pytorch_eager_issues_fewer_ops_than_tf_eager():
    tf_system, torch_system = System.create(seed=0), System.create(seed=0)
    tf_engine, torch_engine = EagerEngine(tf_system), PyTorchEagerEngine(torch_system)
    for engine in (tf_engine, torch_engine):
        with use_engine(engine):
            net = MLP(8, [16, 16], 4, rng=np.random.default_rng(0))
            net(Tensor(np.ones((1, 8), dtype=np.float32)))
    assert torch_engine.op_count < tf_engine.op_count
    assert torch_engine.native_call_count < tf_engine.native_call_count
    assert torch_engine.fuses_linear and not tf_engine.fuses_linear


# -------------------------------------------------------------------- graph
def test_graph_function_is_single_native_call(system):
    engine = GraphEngine(system)
    with use_engine(engine):
        net = MLP(4, [8, 8], 2, rng=np.random.default_rng(0))
        forward = engine.function(lambda obs: net(Tensor(obs)).numpy(), name="forward", num_feeds=1)
        out = forward(np.ones((1, 4), dtype=np.float32))
        assert engine.native_call_count == 1
        assert engine.op_count > 1
        forward(np.ones((1, 4), dtype=np.float32))
        assert engine.native_call_count == 2
    assert out.shape == (1, 2)
    assert engine.graphs[0].traced
    assert engine.graphs[0].ops_per_call == engine.op_count // 2


def test_graph_top_level_op_falls_back_to_single_call(system):
    engine = GraphEngine(system)
    with use_engine(engine):
        F.relu(Tensor(np.ones(3, dtype=np.float32)))
    assert engine.native_call_count == 1


# ---------------------------------------------------------------- autograph
def test_autograph_nested_compiled_calls_do_not_add_transitions(system):
    engine = AutographEngine(system)
    with use_engine(engine):
        net = MLP(4, [8], 2, rng=np.random.default_rng(0))
        inner = engine.function(lambda obs: net(Tensor(obs)).numpy(), name="policy")

        def loop(n):
            for _ in range(n):
                inner(np.ones((1, 4), dtype=np.float32))

        outer = engine.function(loop, name="collect")
        outer(5)
    assert engine.native_call_count == 1


def test_autograph_py_function_escapes_to_python(system):
    engine = AutographEngine(system)
    events = []

    class Boundary:
        def enter(self, eng, name):
            events.append(("enter", name))

        def exit(self, eng, name):
            events.append(("exit", name))

    engine.boundary = Boundary()
    with use_engine(engine):
        def body():
            engine.py_function(lambda: events.append(("python", "sim")))

        fn = engine.function(body, name="driver")
        fn()
    kinds = [kind for kind, _ in events]
    assert kinds == ["enter", "exit", "python", "enter", "exit"]


def test_autograph_dispatch_inflation_applies_to_inference_functions(system):
    engine = AutographEngine(system)
    with use_engine(engine):
        net = MLP(4, [8], 2, rng=np.random.default_rng(0))
        plain = engine.function(lambda: net(Tensor(np.ones((1, 4), np.float32))), name="train",
                                inflate_dispatch=False)
        inflated = engine.function(lambda: net(Tensor(np.ones((1, 4), np.float32))), name="infer",
                                   inflate_dispatch=True)
        start = system.clock.now_us
        plain()
        plain_cost = system.clock.now_us - start
        start = system.clock.now_us
        inflated()
        inflated_cost = system.clock.now_us - start
    assert inflated_cost > plain_cost * 1.5


def test_autograph_first_escape_charges_python_once_per_entry(system):
    engine = AutographEngine(system)
    costs = []
    with use_engine(engine):
        def body():
            for _ in range(3):
                start = system.clock.now_us
                engine.py_function(lambda: None)
                costs.append(system.clock.now_us - start)

        fn = engine.function(body, name="driver")
        fn()
    # Only the first escape after entering the function pays the big prologue.
    assert costs[0] > costs[1] * 3
    assert costs[1] == pytest.approx(costs[2], rel=0.5)


# -------------------------------------------------------------------- layers
def test_dense_forward_matches_numpy(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        layer = Dense(3, 2, activation=None, rng=np.random.default_rng(0))
        x = np.ones((4, 3), dtype=np.float32)
        out = layer(Tensor(x)).numpy()
    expected = x @ layer.weight.data + layer.bias.data
    assert np.allclose(out, expected, atol=1e-6)


def test_mlp_parameter_count_and_state_dict(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        net = MLP(4, [8, 8], 2, rng=np.random.default_rng(0))
    expected = 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2
    assert net.num_parameters() == expected
    assert parameter_count(net.parameters()) == expected
    state = net.state_dict()
    other = MLP(4, [8, 8], 2, rng=np.random.default_rng(99))
    other.load_state_dict(state)
    for a, b in zip(net.parameters(), other.parameters()):
        assert np.allclose(a.data, b.data)
    with pytest.raises(ValueError):
        other.load_state_dict(state[:-1])


def test_soft_and_hard_updates(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        source = MLP(3, [4], 2, rng=np.random.default_rng(1))
        target = MLP(3, [4], 2, rng=np.random.default_rng(2))
        original_target = [p.data.copy() for p in target.parameters()]
        soft_update(target, source, tau=0.5)
        for target_param, source_param, original in zip(target.parameters(), source.parameters(), original_target):
            assert np.allclose(target_param.data, 0.5 * original + 0.5 * source_param.data, atol=1e-6)
        hard_update(target, source)
        for target_param, source_param in zip(target.parameters(), source.parameters()):
            assert np.allclose(target_param.data, source_param.data)


def test_soft_update_separate_calls_issue_more_transitions():
    bundled_sys, separate_sys = System.create(seed=0), System.create(seed=0)
    for sys_, separate in ((bundled_sys, False), (separate_sys, True)):
        engine = GraphEngine(sys_)
        with use_engine(engine):
            source = MLP(3, [4], 2, rng=np.random.default_rng(1))
            target = MLP(3, [4], 2, rng=np.random.default_rng(2))
            soft_update(target, source, tau=0.1, separate_calls=separate)
        if separate:
            separate_calls = engine.native_call_count
        else:
            bundled_calls = engine.native_call_count
    assert separate_calls > bundled_calls


# ----------------------------------------------------------------- optimizers
def test_adam_reduces_quadratic_loss(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        param = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        optimizer = Adam([param], lr=0.1)
        for _ in range(200):
            optimizer.step([2.0 * param.data])
        assert np.linalg.norm(param.data) < 0.1


def test_optimizer_validates_gradients(system):
    engine = EagerEngine(system)
    with use_engine(engine):
        param = Parameter(np.zeros((2, 2), dtype=np.float32))
        optimizer = Adam([param], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.step([])
        with pytest.raises(ValueError):
            optimizer.step([np.zeros(3, dtype=np.float32)])
    with pytest.raises(ValueError):
        Adam([param], lr=-1.0)


def test_mpi_adam_matches_fused_adam_numerically():
    fused_sys, mpi_sys = System.create(seed=0), System.create(seed=0)
    updates = []
    for sys_, optimizer_cls in ((fused_sys, Adam), (mpi_sys, MPIAdam)):
        engine = GraphEngine(sys_)
        with use_engine(engine):
            param = Parameter(np.array([1.0, 2.0, 3.0], dtype=np.float32))
            optimizer = optimizer_cls([param], lr=0.05)
            for step in range(10):
                optimizer.step([param.data * 0.5 + step * 0.01])
            updates.append(param.data.copy())
    assert np.allclose(updates[0], updates[1], atol=1e-5)


def test_mpi_adam_is_more_expensive_than_fused_adam():
    costs = {}
    for label, optimizer_cls in (("fused", Adam), ("mpi", MPIAdam)):
        sys_ = System.create(seed=0)
        engine = GraphEngine(sys_)
        with use_engine(engine):
            params = [Parameter(np.zeros((256, 256), dtype=np.float32)),
                      Parameter(np.zeros(256, dtype=np.float32))]
            optimizer = optimizer_cls(params, lr=1e-3)
            optimizer.step([np.ones_like(p.data) for p in params])
        costs[label] = sys_.clock.now_us
    assert costs["mpi"] > 2.0 * costs["fused"]


def test_flat_param_helpers():
    params = [Parameter(np.arange(4, dtype=np.float32).reshape(2, 2)),
              Parameter(np.array([9.0], dtype=np.float32))]
    flat = flatten_params(params)
    assert flat.tolist() == [0, 1, 2, 3, 9]
    assign_flat_params(params, np.zeros(5, dtype=np.float32))
    assert np.allclose(params[0].data, 0)
    with pytest.raises(ValueError):
        assign_flat_params(params, np.zeros(6, dtype=np.float32))
