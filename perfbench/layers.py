"""The layers of the per-layer split and the entry points that bound them.

Each layer is a ``repro`` package (or one side of it); its public entry
points are traced from outside by :class:`spans.Tracer`.  Time spent in a
function that is not an entry point is charged to the innermost enclosing
entry point, so e.g. the Python body of a compiled backend function counts
as ``backend`` and a cost-model query as ``cuda_hw``.
"""

from __future__ import annotations

from spans import Tracer

LAYERS = (
    "minigo",
    "sim",
    "rollout.scheduler",
    "rollout.inference",
    "backend",
    "cuda_hw",
    "profiler.write",
    "profiler.read",
    "tracedb.write",
    "tracedb.read",
    "rl",
    "serving",
    "parallel",
)


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points with ``tracer``'s spans."""
    import repro.sim  # noqa: F401  (loads every Env subclass before patching)
    from repro.backend import engine
    from repro.cuda import runtime
    from repro.hw import costmodel
    from repro.minigo import mcts, selfplay
    from repro.parallel import proxy, runner
    from repro.profiler import analysis, api, correction, overlap
    from repro.rl import base as rl_base
    from repro.rollout import inference, scheduler
    from repro.serving import client, protocol, server, slo
    from repro.sim import base as sim_base
    from repro.sim import go
    from repro.tracedb import store, writer

    t = tracer
    t.patch_method(mcts.SearchCursor, "advance", "minigo")
    t.patch_method(mcts.MCTS, "choose_move", "minigo")
    t.patch_method(mcts.MCTS, "policy_from_visits", "minigo")
    t.patch_method(selfplay.GameDriver, "step", "minigo")

    for name in ("play", "legal_moves", "features"):
        t.patch_method(go.GoPosition, name, "sim")
    for name in ("step", "reset"):
        t.patch_method(sim_base.Env, name, "sim")

    t.patch_method(scheduler.PoolScheduler, "run", "rollout.scheduler")
    for name in ("submit", "serve_queued"):
        t.patch_method(inference.InferenceService, name, "rollout.inference")

    t.patch_method(engine.CompiledFunction, "__call__", "backend")
    t.patch_method(engine.BackendEngine, "apply", "backend")

    t.patch_method(runtime.CudaRuntime, "launch_kernel", "cuda_hw")
    t.patch_method(runtime.CudaRuntime, "memcpy_async", "cuda_hw")
    t.patch_class(costmodel.CostModel, "cuda_hw")

    for name in ("operation", "on_c_enter", "on_c_exit", "record_event", "finalize"):
        t.patch_method(api.Profiler, name, "profiler.write")
    t.patch_function(overlap, "compute_overlap", "profiler.read")
    for name in ("overhead_by_operation_category", "corrected_category_breakdown",
                 "corrected_total_us", "corrected_overlap_total_us"):
        t.patch_function(correction, name, "profiler.read")
    t.patch_function(analysis, "analyze_db", "profiler.read")

    for name in ("add_event", "add_operation", "add_marker", "flush"):
        t.patch_method(writer.ShardWriter, name, "tracedb.write")
    t.patch_method(writer.StreamingTraceWriter, "close", "tracedb.write")
    for name in ("chunk_payload", "iter_events", "iter_operations", "iter_markers",
                 "read_worker"):
        t.patch_method(store.TraceDB, name, "tracedb.read")

    t.patch_method(rl_base.BaseAlgorithm, "train", "rl")

    for name in ("receive", "offer", "on_timer", "drain"):
        t.patch_method(server.InferenceServer, name, "serving")
    t.patch_class(client.ServingClient, "serving")
    for name in ("encode_request", "encode_reply"):
        t.patch_function(protocol, name, "serving", measure=("serving.wire_bytes", len))
    t.patch_function(protocol, "decode_message", "serving")
    t.patch_method(protocol.MessageStream, "feed", "serving")
    t.patch_function(slo, "build_slo_report", "serving")

    t.patch_class(runner.ParallelRunner, "parallel")
    t.patch_method(proxy.ProxyDriver, "step", "parallel")
