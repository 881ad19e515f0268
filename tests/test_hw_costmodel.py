"""Tests for the cost model.

A :class:`~repro.hw.costmodel.CostModel` draws standard normals
:data:`~repro.hw.costmodel.JITTER_BLOCK` at a time and hands them out one
per duration; the block-draw tests pin that to one scalar
``Generator.normal`` draw per duration.
"""

import numpy as np
import pytest

from repro.hw.costmodel import CostModel, CostModelConfig, scaled_sim_costs


@pytest.fixture
def exact_model() -> CostModel:
    return CostModel(CostModelConfig(jitter=0.0))


def test_python_work_scales_with_units(exact_model):
    one = exact_model.python_work(1.0)
    ten = exact_model.python_work(10.0)
    assert ten == pytest.approx(10 * one)


def test_backend_costs_differ_by_engine(exact_model):
    graph = exact_model.backend_call("tensorflow", "graph")
    eager = exact_model.backend_call("tensorflow", "eager")
    torch = exact_model.backend_call("pytorch", "eager")
    assert graph > eager > torch
    assert exact_model.backend_op_dispatch("tensorflow", "eager") > \
        exact_model.backend_op_dispatch("tensorflow", "graph")


def test_unknown_backend_flavor_raises(exact_model):
    with pytest.raises(KeyError):
        exact_model.backend_call("jax", "graph")
    with pytest.raises(KeyError):
        exact_model.backend_op_dispatch("jax", "graph")


def test_autograph_inflation_applies_only_in_autograph(exact_model):
    base = exact_model.backend_op_dispatch("tensorflow", "autograph")
    inflated = exact_model.backend_op_dispatch("tensorflow", "autograph", in_autograph_fn=True)
    assert inflated == pytest.approx(base * exact_model.config.autograph_dispatch_inflation)
    graph = exact_model.backend_op_dispatch("tensorflow", "graph", in_autograph_fn=True)
    assert graph == pytest.approx(exact_model.backend_op_dispatch("tensorflow", "graph"))


def test_kernel_duration_roofline(exact_model):
    compute_bound = exact_model.kernel_duration(flops=1e9, bytes_accessed=0)
    memory_bound = exact_model.kernel_duration(flops=0, bytes_accessed=1e9)
    tiny = exact_model.kernel_duration(flops=1, bytes_accessed=1)
    config = exact_model.config
    assert compute_bound == pytest.approx(config.gpu_kernel_fixed_us + 1e9 / config.gpu_flops_per_us)
    assert memory_bound == pytest.approx(config.gpu_kernel_fixed_us + 1e9 / config.gpu_bytes_per_us)
    assert tiny == pytest.approx(config.gpu_kernel_fixed_us, rel=0.01)


def test_cuda_api_has_default_for_unknown_api(exact_model):
    assert exact_model.cuda_api("cudaSomethingNew") > 0


def test_sim_step_costs_ordered_by_complexity(exact_model):
    pong = exact_model.sim_step("Pong")
    walker = exact_model.sim_step("Walker2D")
    airlearning = exact_model.sim_step("AirLearning")
    assert pong < walker < airlearning
    assert exact_model.sim_reset("Pong") == pytest.approx(pong * exact_model.config.sim_reset_factor)
    with pytest.raises(KeyError):
        exact_model.sim_step("NotASimulator")


def test_interception_overheads(exact_model):
    profiling = exact_model.config.profiling
    assert exact_model.interception_overhead("pyprof") == pytest.approx(profiling.pyprof_interception_us)
    assert exact_model.interception_overhead("cuda") == pytest.approx(profiling.cuda_interception_us)
    assert exact_model.interception_overhead("annotation") == pytest.approx(profiling.annotation_us)
    with pytest.raises(ValueError):
        exact_model.interception_overhead("bogus")


def test_cupti_inflation_differs_per_api(exact_model):
    launch = exact_model.cupti_inflation("cudaLaunchKernel")
    memcpy = exact_model.cupti_inflation("cudaMemcpyAsync")
    assert launch != memcpy


def test_jitter_is_reproducible_per_seed():
    a = CostModel(seed=7)
    b = CostModel(seed=7)
    c = CostModel(seed=8)
    values_a = [a.python_work(5.0) for _ in range(10)]
    values_b = [b.python_work(5.0) for _ in range(10)]
    values_c = [c.python_work(5.0) for _ in range(10)]
    assert values_a == values_b
    assert values_a != values_c


def test_jitter_stays_close_to_base():
    model = CostModel(CostModelConfig(jitter=0.02), seed=3)
    samples = np.array([model.python_work(100.0) for _ in range(200)])
    assert abs(samples.mean() - 90.0) / 90.0 < 0.05  # base is 0.9us/unit * 100


def test_scaled_sim_costs():
    scaled = scaled_sim_costs(2.0)
    base = CostModelConfig().sim_step_us
    assert scaled["Pong"] == pytest.approx(2.0 * base["Pong"])
    assert scaled["Walker2D"] == pytest.approx(2.0 * base["Walker2D"])


# --------------------------------------------------------------- block draws
def draws(model: CostModel, count: int):
    return [model.python_work(1.0) for _ in range(count)]


def jitter_stream(model: CostModel):
    """Where the next draw comes from: the generator state and the block cursor."""
    return model._rng.bit_generator.state, model._cursor


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_block_draws_match_scalar_normal_draws(seed):
    model = CostModel(seed=seed)
    rng = np.random.default_rng(seed)
    expected = [float(0.9 * max(1.0 + rng.normal(0.0, 0.02), 0.05)) for _ in range(5000)]
    assert draws(model, 5000) == expected


def test_zero_jitter_and_zero_costs_draw_nothing():
    quiet = CostModel(CostModelConfig(jitter=0.0), seed=1)
    before = jitter_stream(quiet)
    assert draws(quiet, 5) == [0.9] * 5
    assert jitter_stream(quiet) == before
    model = CostModel(seed=1)
    before = jitter_stream(model)
    assert model.python_work(0.0) == 0.0
    assert jitter_stream(model) == before
