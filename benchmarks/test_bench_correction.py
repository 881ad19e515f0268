"""Benchmark: overhead-correction locator on a long trace.

The correction pass looks up the innermost active operation for every
overhead marker.  A linear scan per marker makes that O(markers x
operations); the interval-indexed locator keeps it O((markers + operations)
log operations).  This smoke run pins the scaling on a long synthetic trace
so the quadratic scan cannot silently return, and cross-checks the indexed
answers against the obvious linear reference.
"""

import sys
import time
from pathlib import Path

from conftest import save_report
from repro.profiler.calibration import CalibrationResult
from repro.profiler.correction import OperationLocator, overhead_by_operation_category
from repro.profiler.events import CATEGORY_OPERATION, OVERHEAD_ANNOTATION, Event, OverheadMarker
from repro.profiler.overlap import UNTRACKED

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.event_trace import EventTrace  # noqa: E402

NUM_OPERATIONS = 20_000
NUM_MARKERS = 40_000


def _long_trace() -> EventTrace:
    """Nested operation pairs tiled along a long timeline, plus markers."""
    trace = EventTrace()
    for i in range(NUM_OPERATIONS // 2):
        start = float(i * 10)
        trace.operations.append(Event(CATEGORY_OPERATION, "outer", start, start + 9.0))
        trace.operations.append(Event(CATEGORY_OPERATION, "inner", start + 2.0, start + 7.0))
    span = (NUM_OPERATIONS // 2) * 10.0
    for j in range(NUM_MARKERS):
        trace.markers.append(OverheadMarker(kind=OVERHEAD_ANNOTATION,
                                            time_us=j * span / NUM_MARKERS))
    return trace


def _linear_reference(operations, time_us):
    best = None
    for op in operations:
        if op.start_us <= time_us <= op.end_us:
            if best is None or op.start_us >= best.start_us:
                best = op
    return best.name if best is not None else UNTRACKED


def test_bench_correction_long_trace(benchmark):
    objects = _long_trace()
    trace = objects.columnar()
    calibration = CalibrationResult(annotation_us=1.5)

    t0 = time.perf_counter()
    totals = benchmark.pedantic(
        lambda: overhead_by_operation_category(trace, calibration),
        rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0

    # Every marker's overhead must land somewhere.
    assert sum(totals.values()) > 0
    total_markers = sum(v for v in totals.values())
    assert abs(total_markers - 1.5 * NUM_MARKERS) < 1e-6

    # Spot-check the indexed locator against the linear reference.
    operations = list(objects.operations)
    columns = trace.columns
    locator = OperationLocator(columns.strings, columns.operations)
    for time_us in [0.0, 1.0, 2.0, 4.5, 7.0, 9.0, 9.5, 42.0, 12345.6,
                    (NUM_OPERATIONS // 2) * 10.0 - 0.5, 1e9]:
        assert locator.locate(time_us) == _linear_reference(operations, time_us)

    report = "\n".join([
        "Overhead-correction long-trace smoke",
        f"  operations:        {NUM_OPERATIONS:,}",
        f"  markers:           {NUM_MARKERS:,}",
        f"  correction pass:   {elapsed * 1e3:.1f} ms (interval-indexed locator)",
        f"  overhead located:  {total_markers:,.1f} us across {len(totals)} buckets",
    ])
    print()
    print(report)
    save_report("correction_long_trace", report)
