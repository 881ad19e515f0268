"""Outside-in span tracing: per-layer self time without touching the program.

A :class:`Tracer` replaces a layer's public entry points -- methods of
``repro`` classes and module-level ``repro`` functions -- with thin wrappers
that open one span per call.  A span's *self time* is its duration minus the
time covered by the spans it encloses, so the layers' self times partition
the traced root span exactly::

    root duration = sum(layer self time) + unattributed time

where the unattributed part is the root's own self time: benchmark glue,
builtins and every ``repro`` function not listed as an entry point.

An entry point called again from inside its own innermost span -- direct
recursion, or an override calling ``super()`` -- opens no second span: the
recursive entry is counted once and its time is never counted twice.  Entry
points reached again through another layer (``a -> b -> a``) open a new span,
so each stretch of time is charged to the layer actually running it.

Generator functions get one span per resumed step, and ``@contextmanager``
functions one span for ``__enter__`` and one for ``__exit__``, so the body a
context manager guards is charged to whoever runs it, not to the layer that
provided the context manager.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Layer name of the root span's own self time.
UNATTRIBUTED = "unattributed"

#: ``(counter name, function of the wrapped call's result)``: adds the
#: function's value to :attr:`Tracer.counters` on every traced call.
Measure = Tuple[str, Callable[[object], float]]


class Tracer:
    """Collects spans from patched entry points; records only inside :meth:`root`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.self_s: Dict[str, float] = defaultdict(float)  #: layer -> self seconds
        self.calls: Counter = Counter()        #: layer -> spans closed
        self.entry_calls: Counter = Counter()  #: entry-point key -> spans closed
        self.counters: Counter = Counter()     #: measured values (see Measure)
        self.root_s = 0.0                      #: summed duration of the root spans
        self._stack: List[list] = []           #: open spans: [layer, key, start, child_s]
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        # A forked worker process runs its own copy of the program; its spans
        # would never be reported, so there the wrappers only pass calls on.
        self.enabled = False
        self._stack.clear()

    # ------------------------------------------------------------------ spans
    def enter(self, layer: str, key: str) -> bool:
        """Open a span unless tracing is off or ``key`` is the innermost open span."""
        if not self.enabled or (self._stack and self._stack[-1][1] == key):
            return False
        self._stack.append([layer, key, self.clock(), 0.0])
        return True

    def exit(self) -> None:
        """Close the innermost span and charge its self time to its layer."""
        layer, key, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        self.entry_calls[key] += 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_s += duration

    @contextmanager
    def root(self) -> Iterator[None]:
        """Trace everything the block runs; its own self time is unattributed."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self.enabled = True
        self.enter(UNATTRIBUTED, UNATTRIBUTED)
        try:
            yield
        finally:
            self.exit()
            self.enabled = False

    # --------------------------------------------------------------- wrappers
    def wrap(self, fn: Callable, layer: str, key: str,
             measure: Optional[Measure] = None) -> Callable:
        """A traced stand-in for ``fn`` (plain, generator or context-manager function)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    opened = tracer.enter(layer, key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if opened:
                            tracer.exit()
                    yield item
            return traced_generator

        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", None)):
            @functools.wraps(fn)
            def traced_context(*args, **kwargs):
                return _TracedContext(tracer, layer, key, fn(*args, **kwargs))
            return traced_context

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer.enter(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                if opened:
                    tracer.exit()
            if opened and measure is not None:
                tracer.counters[measure[0]] += measure[1](result)
            return result
        return traced

    def _replace(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, layer: str) -> None:
        """Trace ``cls.name`` and every override of it in a loaded subclass.

        All overrides share one entry-point key, so an override that calls
        ``super()`` counts as a single span.
        """
        key = f"{cls.__qualname__}.{name}"
        found = False
        for klass in [cls, *_subclasses(cls)]:
            original = vars(klass).get(name)
            if inspect.isfunction(original):
                self._replace(klass, name, self.wrap(original, layer, key))
                found = True
        if not found:
            raise AttributeError(f"{cls.__qualname__} defines no method {name!r}")

    def patch_class(self, cls: type, layer: str) -> None:
        """Trace every public method ``cls`` itself defines."""
        for name, value in list(vars(cls).items()):
            if inspect.isfunction(value) and not name.startswith("_"):
                self.patch_method(cls, name, layer)

    def patch_function(self, module, name: str, layer: str,
                       measure: Optional[Measure] = None) -> None:
        """Trace a module-level function under every name ``repro`` binds it to.

        ``from .protocol import decode_message`` copies the function into
        the importing module, so every loaded ``repro`` module holding the
        same object is patched too.
        """
        original = getattr(module, name)
        traced = self.wrap(original, layer, f"{module.__name__}.{name}", measure)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._replace(loaded, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------------- reporting
    def layer_shares(self, layers: Iterable[str]) -> Dict[str, float]:
        """Percent of the root time each layer, and the unattributed rest, took."""
        total = self.root_s
        shares = {layer: 100.0 * self.self_s.get(layer, 0.0) / total for layer in layers}
        shares[UNATTRIBUTED] = 100.0 * self.self_s.get(UNATTRIBUTED, 0.0) / total
        return shares


class _TracedContext:
    """A context manager whose enter and exit each run inside a span."""

    __slots__ = ("_tracer", "_layer", "_key", "_inner")

    def __init__(self, tracer: Tracer, layer: str, key: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._key = key
        self._inner = inner

    def __enter__(self):
        opened = self._tracer.enter(self._layer, self._key)
        try:
            return self._inner.__enter__()
        finally:
            if opened:
                self._tracer.exit()

    def __exit__(self, *exc_info):
        opened = self._tracer.enter(self._layer, self._key)
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            if opened:
                self._tracer.exit()


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found
