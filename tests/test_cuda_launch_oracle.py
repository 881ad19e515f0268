"""The batched CUDA launch path against the scalar one-object-per-record oracle.

:mod:`repro.hw.costmodel` draws jitter in blocks, ops launch their kernels
with one ``CudaRuntime.launch_kernels`` call, and the profiler's CUDA hook
and ``finalize`` append field rows instead of building ``Event`` /
``OverheadMarker`` objects.  The path it replaced is kept in
``tests/oracles/scalar_cuda_launch.py``; these tests drive both with the same
seeded random op sequences and require every observable result to match bit
for bit: clocks, CUDA API counts, launch results, CUPTI records, device
activity, in-memory trace records and streamed store bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from oracles.scalar_cuda_launch import ObjectProfiler, scalar_system
from repro.cuda.cupti import Cupti
from repro.cuda.kernels import KernelSpec
from repro.hw.costmodel import (
    DEFAULT_CUDA_API_US,
    CostModel,
    CostModelConfig,
    ProfilingOverheads,
)
from repro.hw.gpu import GPUDevice
from repro.profiler.api import Profiler, ProfilerConfig
from repro.profiler.events import EventTrace
from repro.system import System
from repro.tracedb.format import ChunkPayload, decode_chunk, encode_chunk
from repro.tracedb.store import TraceDB
from repro.tracedb.writer import ShardWriter, SpillingEventTrace

KERNEL_NAMES = ("volta_sgemm", "elementwise", "reduce", "adam_update")
PHASES = ("data_collection", "sgd_updates")

ZERO_COSTS = CostModelConfig(
    python_op_us=0.0,
    cuda_api_us={name: 0.0 for name in DEFAULT_CUDA_API_US},
    gpu_kernel_fixed_us=0.0,
    pcie_latency_us=0.0,
    profiling=ProfilingOverheads(
        pyprof_interception_us=0.0, cuda_interception_us=0.0, annotation_us=0.0,
        cupti_inflation_us={name: 0.0 for name in DEFAULT_CUDA_API_US}),
)
COST_CONFIGS = {
    "default": CostModelConfig(),
    "no-jitter": CostModelConfig(jitter=0.0),
    "zero-costs": ZERO_COSTS,
}
PROFILER_CONFIGS = {
    "unprofiled": None,
    "hook+cupti": ProfilerConfig.only(cuda_interception=True, cupti=True),
    "hook-only": ProfilerConfig.only(cuda_interception=True),
    "cupti-only": ProfilerConfig.only(cupti=True),
    "full": ProfilerConfig.full(),
}


def _kernel(rng: random.Random) -> KernelSpec:
    flops = rng.choice((0.0, rng.uniform(0.0, 2e9)))
    return KernelSpec(rng.choice(KERNEL_NAMES), flops, rng.choice((0.0, rng.uniform(0.0, 4e7))))


def random_ops(rng: random.Random, count: int, workers: int):
    """A seeded sequence of ``(worker index, op name, args)`` runtime calls."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            op = ("launch_kernels", [_kernel(rng) for _ in range(rng.choice((0, 1, 1, 2, 3, 6)))])
        elif roll < 0.55:
            op = ("launch_kernel", _kernel(rng))
        elif roll < 0.62:
            op = ("memset_async", rng.uniform(0.0, 1e6))
        elif roll < 0.72:
            op = ("memcpy_async", rng.choice(("HtoD", "DtoH")), rng.uniform(0.0, 1e6))
        elif roll < 0.77:
            op = ("stream_synchronize",)
        elif roll < 0.81:
            op = ("device_synchronize",)
        elif roll < 0.84:
            op = ("malloc", 4096.0)
        elif roll < 0.86:
            op = ("free",)
        elif roll < 0.94:
            op = ("cpu_work", rng.uniform(0.0, 20.0))
        else:
            op = ("set_phase", rng.choice(PHASES))
        ops.append((rng.randrange(workers), op[0], op[1:]))
    return ops


def run(make_system, make_profiler, *, seed, cost_config, profiler_config, streaming,
        workers, ops, store_root: Path):
    """Run ``ops`` on ``workers`` systems (sharing one device and CUPTI if > 1)."""
    shared_device = shared_cupti = None
    if workers > 1:
        shared_device = GPUDevice(cost_model=CostModel(cost_config, seed=seed + 100))
        shared_cupti = Cupti()
    systems = [make_system(seed=seed + index, config=cost_config, device=shared_device,
                           cupti=shared_cupti, worker=f"worker_{index}")
               for index in range(workers)]
    profilers = []
    if profiler_config is not None:
        for system in systems:
            profiler = make_profiler(system, profiler_config,
                                     trace_dir=str(store_root) if streaming else None,
                                     streaming=streaming)
            profilers.append(profiler.attach())
    results = []
    for index, name, args in ops:
        system = systems[index]
        if name == "cpu_work":
            system.cpu_work(*args)
        elif name == "set_phase":
            if profilers:
                profilers[index].set_phase(*args)
        else:
            results.append(getattr(system.cuda, name)(*args))
    traces = [profiler.finalize() for profiler in profilers]
    return {
        "clocks": [system.clock.now_us for system in systems],
        "api_call_counts": [list(system.cuda.api_call_counts.items()) for system in systems],
        "launch_counts": [(system.cuda.kernel_launch_count, system.cuda.memcpy_count)
                          for system in systems],
        "results": results,
        "cupti": [(list(c.api_records), list(c.kernel_records), list(c.memcpy_records))
                  for c in {id(s.cuda.cupti): s.cuda.cupti for s in systems}.values()],
        "activity": [d.activity for d in {id(s.device): s.device for s in systems}.values()],
        "traces": [(trace.events, trace.operations, trace.markers, trace.metadata)
                   for trace in traces],
        "store": {path.name: path.read_bytes() for path in sorted(store_root.iterdir())}
        if streaming else None,
    }


def _compare(tmp_path, *, seed, cost, profiler, streaming=False, workers=1, count=150):
    ops = random_ops(random.Random(seed), count, workers)
    kwargs = dict(seed=seed, cost_config=COST_CONFIGS[cost],
                  profiler_config=PROFILER_CONFIGS[profiler], streaming=streaming,
                  workers=workers, ops=ops)
    shipped = run(System.create, Profiler, store_root=tmp_path / "shipped", **kwargs)
    oracle = run(scalar_system, ObjectProfiler, store_root=tmp_path / "oracle", **kwargs)
    for key in shipped:
        assert shipped[key] == oracle[key], key
    return shipped


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("cost", sorted(COST_CONFIGS))
@pytest.mark.parametrize("profiler", sorted(PROFILER_CONFIGS))
def test_launch_path_matches_scalar_oracle(tmp_path, seed, cost, profiler):
    _compare(tmp_path, seed=seed, cost=cost, profiler=profiler)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("profiler", ["hook+cupti", "full", "cupti-only"])
def test_streamed_store_matches_scalar_oracle(tmp_path, seed, profiler):
    shipped = _compare(tmp_path, seed=seed, cost="default", profiler=profiler,
                       streaming=True, count=300)
    assert shipped["store"]


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("streaming", [False, True])
def test_shared_device_two_workers_match_scalar_oracle(tmp_path, seed, streaming):
    shipped = _compare(tmp_path, seed=seed, cost="default", profiler="full",
                       streaming=streaming, workers=2, count=300)
    assert {a.worker for a in shipped["activity"][0]} == {"worker_0", "worker_1"}


def test_empty_kernel_list_leaves_no_trace():
    system = System.create(seed=0)
    model = system.cost_model
    stream = (model._rng.bit_generator.state, model._cursor)
    assert system.cuda.launch_kernels([]) == []
    assert list(system.cuda.api_call_counts) == []  # not even a zero count
    assert system.clock.now_us == 0.0
    assert (model._rng.bit_generator.state, model._cursor) == stream  # drew nothing


def test_streamed_chunk_equals_object_encoding_of_in_memory_trace(tmp_path):
    """Rows appended by the hook and finalize encode like the objects they replace."""
    ops = random_ops(random.Random(99), 300, 1)
    kwargs = dict(seed=99, cost_config=CostModelConfig(), profiler_config=ProfilerConfig.full(),
                  workers=1, ops=ops)
    in_memory = run(System.create, Profiler, streaming=False, store_root=tmp_path, **kwargs)
    streamed = run(System.create, Profiler, streaming=True, store_root=tmp_path / "s", **kwargs)
    events, operations, markers, _ = in_memory["traces"][0]
    (chunk_name,) = [name for name in streamed["store"] if name.endswith(".tdbc")]
    payload = ChunkPayload(events=events, operations=operations, markers=markers)
    assert encode_chunk(payload) == streamed["store"][chunk_name]
    decoded = decode_chunk(streamed["store"][chunk_name])
    assert (decoded.events, decoded.markers) == (events, markers)
    assert TraceDB(str(tmp_path / "s")).read_worker("worker_0").events == events


@pytest.mark.parametrize("spilling", [False, True])
def test_add_interval_rejects_an_event_ending_before_it_starts(tmp_path, spilling):
    shard = ShardWriter(tmp_path, "worker_0", chunk_events=4)
    trace = SpillingEventTrace(shard) if spilling else EventTrace()
    trace.add_interval("CUDA", "cudaLaunchKernel", 1.0, 2.0, "worker_0", "p")
    with pytest.raises(ValueError, match="ends before it starts"):
        trace.add_interval("CUDA", "cudaLaunchKernel", 5.0, 4.0, "worker_0", "p")
    trace.add_marker_at("cupti", 2.0, "cudaLaunchKernel", "worker_0", "p")
    if spilling:
        assert (shard.total_events, shard.total_markers, shard.buffered_records) == (1, 1, 2)
    else:
        assert (len(trace.events), len(trace.markers)) == (1, 1)
