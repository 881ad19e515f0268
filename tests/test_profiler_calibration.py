"""Tests for calibration, overhead correction, analysis, and trace storage."""

import numpy as np
import pytest

from repro.experiments.common import WorkloadSpec, calibrate_workload, calibration_runner, run_workload
from repro.profiler import (
    CalibrationResult,
    Profiler,
    ProfilerConfig,
    analyze,
    multi_process_summary,
)
from repro.profiler.calibration import CalibrationRun, calibrate
from repro.profiler.correction import (
    corrected_category_breakdown,
    corrected_total_us,
    overhead_by_operation_category,
)
from repro.profiler.events import (
    CATEGORY_CUDA_API,
    CATEGORY_PYTHON,
    OVERHEAD_ANNOTATION,
    OVERHEAD_CUDA_INTERCEPTION,
    OVERHEAD_CUPTI,
    OVERHEAD_PYPROF,
    Event,
    EventTrace,
    OverheadMarker,
)
from repro.hw.costmodel import CostModelConfig
from repro.tracedb import StreamingTraceWriter, TraceDB

#: A small, fast workload reused by the calibration tests.
SMALL_SPEC = WorkloadSpec(algo="PPO2", simulator="Hopper", total_timesteps=64)


@pytest.fixture(scope="module")
def calibration() -> CalibrationResult:
    return calibrate_workload(SMALL_SPEC)


def test_calibration_recovers_ground_truth_overheads(calibration):
    truth = CostModelConfig().profiling
    assert calibration.pyprof_us == pytest.approx(truth.pyprof_interception_us, rel=0.35)
    assert calibration.annotation_us == pytest.approx(truth.annotation_us, rel=0.35)
    assert calibration.cuda_interception_us == pytest.approx(truth.cuda_interception_us, rel=0.35)
    launch_inflation = calibration.cupti_per_api_us.get("cudaLaunchKernel")
    assert launch_inflation == pytest.approx(truth.cupti_inflation_us["cudaLaunchKernel"], rel=0.35)


def test_calibration_details_record_counts(calibration):
    assert calibration.details["baseline_total_us"] > 0
    assert calibration.details[f"{OVERHEAD_PYPROF}_count"] > 0
    assert calibration.details[f"{OVERHEAD_CUDA_INTERCEPTION}_count"] > 0
    assert calibration.details[f"{OVERHEAD_ANNOTATION}_count"] > 0


def test_overhead_for_marker_dispatch(calibration):
    assert calibration.overhead_for_marker(OverheadMarker(OVERHEAD_PYPROF, 0.0)) == calibration.pyprof_us
    assert calibration.overhead_for_marker(
        OverheadMarker(OVERHEAD_CUPTI, 0.0, api_name="cudaLaunchKernel")
    ) == calibration.cupti_per_api_us["cudaLaunchKernel"]
    with pytest.raises(ValueError):
        calibration.overhead_for_marker(OverheadMarker("bogus", 0.0))


def test_correction_brings_total_close_to_uninstrumented(calibration):
    uninstrumented = run_workload(SMALL_SPEC, profiler_config=ProfilerConfig.uninstrumented())
    instrumented = run_workload(SMALL_SPEC, profiler_config=ProfilerConfig.full())
    assert instrumented.total_time_us > uninstrumented.total_time_us
    corrected = corrected_total_us(instrumented.trace, calibration, total_us=instrumented.total_time_us)
    bias = abs(corrected - uninstrumented.total_time_us) / uninstrumented.total_time_us
    assert bias < 0.16  # the paper's +/-16% bound


def test_ground_truth_calibration_result_construction():
    result = CalibrationResult.from_ground_truth(CostModelConfig())
    assert result.pyprof_us > 0
    assert "cudaLaunchKernel" in result.cupti_per_api_us


def test_calibrate_with_synthetic_runner():
    """Delta calibration arithmetic on a hand-built runner."""
    per_marker = {"pyprof": 2.0, "annotations": 3.0, "cuda_interception": 1.0}
    counts = {"pyprof": 50, "annotations": 10, "cuda_interception": 40}
    kind_of = {"pyprof": OVERHEAD_PYPROF, "annotations": OVERHEAD_ANNOTATION,
               "cuda_interception": OVERHEAD_CUDA_INTERCEPTION}
    base_total = 1_000.0

    def runner(config: ProfilerConfig) -> CalibrationRun:
        total = base_total
        trace = EventTrace()
        for flag, kind in kind_of.items():
            if getattr(config, flag):
                total += per_marker[flag] * counts[flag]
                for i in range(counts[flag]):
                    trace.add_marker(OverheadMarker(kind, float(i)))
        if config.cuda_interception:
            # Average CUDA API durations: 5us alone, 8us with CUPTI enabled.
            duration = 8.0 if config.cupti else 5.0
            for i in range(counts["cuda_interception"]):
                trace.add_event(Event(CATEGORY_CUDA_API, "cudaLaunchKernel",
                                      i * 10.0, i * 10.0 + duration))
            if config.cupti:
                total += 3.0 * counts["cuda_interception"]
        return CalibrationRun(total_time_us=total, trace=trace)

    result = calibrate(runner)
    assert result.pyprof_us == pytest.approx(2.0)
    assert result.annotation_us == pytest.approx(3.0)
    assert result.cuda_interception_us == pytest.approx(1.0)
    assert result.cupti_per_api_us["cudaLaunchKernel"] == pytest.approx(3.0)


# ------------------------------------------------------------------ correction
def test_overhead_by_operation_category_localises_markers():
    trace = EventTrace()
    trace.add_event(Event("Operation", "inference", 0.0, 100.0))
    trace.add_event(Event("Operation", "backpropagation", 100.0, 200.0))
    trace.add_marker(OverheadMarker(OVERHEAD_PYPROF, 50.0))
    trace.add_marker(OverheadMarker(OVERHEAD_CUDA_INTERCEPTION, 150.0, api_name="cudaLaunchKernel"))
    trace.add_marker(OverheadMarker(OVERHEAD_PYPROF, 500.0))  # outside any operation
    calib = CalibrationResult(pyprof_us=2.0, annotation_us=1.0, cuda_interception_us=3.0,
                              cupti_per_api_us={"cudaLaunchKernel": 4.0})
    overheads = overhead_by_operation_category(trace, calib)
    assert overheads[("inference", CATEGORY_PYTHON)] == pytest.approx(2.0)
    assert overheads[("backpropagation", CATEGORY_CUDA_API)] == pytest.approx(3.0)
    assert overheads[("<untracked>", CATEGORY_PYTHON)] == pytest.approx(2.0)


def test_corrected_breakdown_clamps_at_zero():
    breakdown = {"inference": {CATEGORY_PYTHON: 10.0, CATEGORY_CUDA_API: 5.0}}
    overheads = {("inference", CATEGORY_PYTHON): 25.0, ("inference", "Backend"): 3.0,
                 ("other", CATEGORY_PYTHON): 1.0}
    corrected = corrected_category_breakdown(breakdown, overheads)
    assert corrected["inference"][CATEGORY_PYTHON] == 0.0
    assert corrected["inference"][CATEGORY_CUDA_API] == 5.0


def test_corrected_total_never_negative():
    trace = EventTrace(metadata={"total_time_us": 10.0})
    for i in range(100):
        trace.add_marker(OverheadMarker(OVERHEAD_PYPROF, float(i)))
    calib = CalibrationResult(pyprof_us=5.0)
    assert corrected_total_us(trace, calib) == 0.0


# -------------------------------------------------------------------- analysis
def test_analysis_transitions_require_iterations():
    run = run_workload(SMALL_SPEC)
    with pytest.raises(ValueError):
        analyze(run.trace).transitions_per_iteration(None)
    transitions = run.analysis.transitions_per_iteration(SMALL_SPEC.total_timesteps)
    assert transitions["simulation"]["Simulator"] == pytest.approx(1.0, rel=0.3)


def test_multi_process_summary_totals():
    run = run_workload(SMALL_SPEC)
    summaries = multi_process_summary({"worker_0": run.trace})
    assert len(summaries) == 1
    assert summaries[0].total_time_us == pytest.approx(run.total_time_us)
    assert 0 < summaries[0].gpu_time_us < summaries[0].total_time_us


# ----------------------------------------------------------------- trace store
def test_trace_dump_and_reload_roundtrip(tmp_path):
    run = run_workload(SMALL_SPEC)
    StreamingTraceWriter(str(tmp_path), chunk_events=500).write_trace("worker_0", run.trace)
    db = TraceDB(str(tmp_path))
    assert len(db.chunks()) >= 1
    assert db.workers() == ["worker_0"]
    loaded = db.read_worker("worker_0")
    assert loaded.total_events() == run.trace.total_events()
    assert len(loaded.markers) == len(run.trace.markers)
    # The reloaded trace analyses identically.
    original = analyze(run.trace).category_breakdown_us(corrected=False)
    reloaded = analyze(loaded).category_breakdown_us(corrected=False)
    for op, categories in original.items():
        for category, value in categories.items():
            assert reloaded[op][category] == pytest.approx(value, rel=1e-9)


def test_trace_reader_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        TraceDB(str(tmp_path / "does_not_exist"))


def test_trace_dumper_validates_chunk_size(tmp_path):
    with pytest.raises(ValueError):
        StreamingTraceWriter(str(tmp_path), chunk_events=0)


# ------------------------------------------------------- correction locator
def _linear_locate(operations, time_us):
    """The original O(operations) reference scan, kept as the test oracle."""
    from repro.profiler.overlap import UNTRACKED
    best = None
    for op in sorted(operations, key=lambda op: op.start_us):
        if op.start_us <= time_us and op.end_us >= time_us:
            if best is None or op.start_us >= best.start_us:
                best = op
    return best.name if best is not None else UNTRACKED


def test_operation_locator_matches_linear_scan_on_randomized_trace():
    """The interval-indexed locator must answer exactly like the linear scan,
    including at interval boundaries, on nested/overlapping/duplicate ops."""
    import numpy as np

    from repro.profiler.correction import OperationLocator
    from repro.profiler.events import CATEGORY_OPERATION, Event

    rng = np.random.default_rng(42)
    operations = []
    for i in range(200):
        start = float(rng.integers(0, 500))
        duration = float(rng.integers(0, 60))  # includes zero-length ops
        operations.append(Event(CATEGORY_OPERATION, f"op_{i % 7}", start, start + duration))
    # Exact duplicates and shared boundaries exercise the tie-breaking rules.
    operations.extend(operations[:20])

    locator = OperationLocator(operations)
    queries = list(rng.uniform(-10.0, 600.0, size=300))
    for op in operations[:50]:
        queries.extend([op.start_us, op.end_us, op.start_us - 1e-9, op.end_us + 1e-9])
    for time_us in queries:
        assert locator.locate(time_us) == _linear_locate(operations, time_us), time_us


def test_operation_locator_empty_and_single():
    from repro.profiler.correction import OperationLocator
    from repro.profiler.events import CATEGORY_OPERATION, Event
    from repro.profiler.overlap import UNTRACKED

    assert OperationLocator([]).locate(10.0) == UNTRACKED
    locator = OperationLocator([Event(CATEGORY_OPERATION, "only", 5.0, 15.0)])
    assert locator.locate(4.999) == UNTRACKED
    assert locator.locate(5.0) == "only"
    assert locator.locate(10.0) == "only"
    assert locator.locate(15.0) == "only"
    assert locator.locate(15.001) == UNTRACKED
