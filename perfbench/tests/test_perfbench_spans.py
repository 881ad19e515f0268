"""Self-time arithmetic of the outside-in span tracer."""

from __future__ import annotations

import sys
import types
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import UNATTRIBUTED, Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_charge_self_time_to_each_layer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(3.0)

    traced_inner = tracer.wrap(inner, "b", "inner")
    traced_outer = tracer.wrap(outer, "a", "outer")
    with tracer.root():
        clock.advance(0.5)
        traced_outer()

    assert tracer.root_s == 6.5
    assert tracer.self_s["a"] == 4.0
    assert tracer.self_s["b"] == 2.0
    assert tracer.self_s[UNATTRIBUTED] == 0.5
    assert sum(tracer.layer_shares(["a", "b"]).values()) == 100.0


def test_recursive_entry_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n > 1:
            traced(n - 1)

    traced = tracer.wrap(countdown, "a", "countdown")
    with tracer.root():
        traced(4)

    assert tracer.calls["a"] == 1
    assert tracer.self_s["a"] == 4.0
    assert tracer.root_s == 4.0


def test_reentry_through_another_layer_opens_a_new_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def a(depth):
        clock.advance(1.0)
        if depth:
            traced_b(depth)

    def b(depth):
        clock.advance(10.0)
        traced_a(depth - 1)

    traced_a = tracer.wrap(a, "a", "a")
    traced_b = tracer.wrap(b, "b", "b")
    with tracer.root():
        traced_a(1)

    assert tracer.calls["a"] == 2
    assert tracer.self_s["a"] == 2.0
    assert tracer.self_s["b"] == 10.0


def test_override_calling_super_is_one_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Base:
        def work(self):
            clock.advance(1.0)

    class Child(Base):
        def work(self):
            clock.advance(2.0)
            super().work()

    tracer.patch_method(Base, "work", "layer")
    try:
        with tracer.root():
            Child().work()
    finally:
        tracer.uninstall()

    assert tracer.calls["layer"] == 1
    assert tracer.self_s["layer"] == 3.0
    assert not hasattr(Child.work, "__wrapped__")


def test_generator_and_context_manager_spans_exclude_the_caller():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for _ in range(2):
            clock.advance(1.0)
            yield None

    @contextmanager
    def guarded():
        clock.advance(0.25)
        yield
        clock.advance(0.25)

    traced_produce = tracer.wrap(produce, "gen", "produce")
    traced_guarded = tracer.wrap(guarded, "cm", "guarded")
    with tracer.root():
        for _ in traced_produce():
            clock.advance(5.0)  # the consumer's own work
        with traced_guarded():
            clock.advance(7.0)  # the guarded body belongs to the caller

    assert tracer.self_s["gen"] == 2.0
    assert tracer.self_s["cm"] == 0.5
    assert tracer.self_s[UNATTRIBUTED] == 17.0


def test_patch_function_covers_every_repro_binding_and_uninstalls():
    source = types.ModuleType("repro._spans_test_source")
    user = types.ModuleType("repro._spans_test_user")

    def helper():
        return 7

    source.helper = helper
    user.helper = helper  # as ``from .source import helper`` would bind it
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    tracer = Tracer()
    try:
        tracer.patch_function(source, "helper", "layer", measure=("seven", lambda r: r))
        with tracer.root():
            assert source.helper() == 7
            assert user.helper() == 7
        assert tracer.calls["layer"] == 2
        assert tracer.counters["seven"] == 14
        tracer.uninstall()
        assert source.helper is helper and user.helper is helper
    finally:
        del sys.modules[source.__name__], sys.modules[user.__name__]


def test_spans_record_only_inside_the_root():
    tracer = Tracer()
    traced = tracer.wrap(lambda: None, "a", "noop")
    traced()
    assert tracer.calls["a"] == 0
