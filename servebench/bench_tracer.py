"""In-memory span tracer that measures the simulator's layers from outside.

Nothing under ``src/`` knows about it: :func:`instrument` replaces public
functions and methods of the ``repro`` package with timing wrappers, in
the traced child process only.  Two kinds of wrapper exist:

* **Span wrappers** open one span per call (a builder's
  ``default_cache_effect``, the offline plan, a control-plane tick).  A
  span holds its name, start, end and parent; every span of a run carries
  the run's id.
* **Counter wrappers** sit on per-event entry points (``EventLoop.pop``,
  ``EngineCore.dispatch``, ``select_batch``, ...).  A span per event would
  cost more than the event, so each call only adds its count and time to
  the enclosing span's ``stats``.

Self time is a span's duration minus the part its child spans and its
outermost counter calls cover.  The whole trace stays in memory and is
written once, at the end, in the Chrome trace-event format that
``chrome://tracing`` and Perfetto open.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager

_perf = time.perf_counter


class Span:
    """One traced interval with the per-event counters that fell inside it."""

    __slots__ = ("name", "start", "end", "parent", "stats", "covered")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.stats: dict[str, list] = {}  # counter key -> [calls, seconds]
        self.covered = 0.0  # seconds covered by child spans / outer counters

    @property
    def duration(self) -> float:
        """Wall seconds between the span's start and end."""
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration not covered by child spans or outermost counter calls."""
        return self.duration - self.covered


class Tracer:
    """Spans of one run, kept in memory until :meth:`write`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._nest = 0  # depth of counter calls currently on the stack
        self.counters: dict[str, int] = {}  # plain work counts (no time)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, _perf(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = _perf()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].covered += span.duration

    @contextmanager
    def span(self, name: str):
        """Record the body as one span, child of the innermost open one."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def add(self, key: str, amount: int) -> None:
        """Add to a plain work counter (rows built, batches planned, ...)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    # ---- wrappers --------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        """``fn`` with every call recorded as its own span."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def counter_wrapper(self, key: str, fn, on_result=None):
        """``fn`` with every call's count and time added to the enclosing
        span; ``on_result(result)`` may derive a work count from the
        return value."""
        spans = self.spans
        stack = self._stack

        def counted(*args, **kwargs):
            self._nest += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                self._nest -= 1
                span = spans[stack[-1]]
                stat = span.stats.get(key)
                if stat is None:
                    span.stats[key] = [1, elapsed]
                else:
                    stat[0] += 1
                    stat[1] += elapsed
                if not self._nest:
                    span.covered += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return counted

    # ---- read-out --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per-event counters summed over every span: key -> [calls, s]."""
        out: dict[str, list] = {}
        for span in self.spans:
            for key, (calls, seconds) in span.stats.items():
                stat = out.setdefault(key, [0, 0.0])
                stat[0] += calls
                stat[1] += seconds
        return out

    def named(self, name: str) -> list[Span]:
        """Every recorded span with this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Dump the trace once, as Chrome trace-event JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "run_id": self.run_id,
                    "self_s": span.self_s,
                    **{k: {"calls": c, "s": s}
                       for k, (c, s) in span.stats.items()},
                },
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "counters": self.counters},
                      handle)


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping static
    methods static."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


def _subclasses_defining(base, attr: str) -> list:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the ``repro`` entry points whose work the per-layer metrics
    count.  Call after the ``repro`` imports and before the builder."""
    from repro.core import mp_cache
    from repro.core.offline import OfflinePlanner
    from repro.core.online import Scheduler
    from repro.core.paths import ExecutionPath
    from repro.data.zipf import ZipfSampler
    from repro.experiments import setup
    from repro.serving import cache, fastpath, simulator
    from repro.serving.controlplane import ControlPlane
    from repro.serving.engine import EngineCore, EventLoop
    from repro.serving.metrics import StreamingMetrics
    from repro.serving.region import GeoRouter
    from repro.serving.routing import Router

    spans = tracer.span_wrapper
    count = tracer.counter_wrapper

    # Coarse boundaries: one span per call.
    _patch(setup, "default_cache_effect",
           lambda f: spans("experiments.setup.cache_effect", f))
    _patch(OfflinePlanner, "plan",
           lambda f: spans("core.offline.plan", f))
    _patch(ControlPlane, "on_tick",
           lambda f: spans("serving.controlplane.tick", f))
    _patch(simulator, "run_fastpath",
           lambda f: spans("serving.fastpath.run", f))

    # Per-event entry points: counts and time on the enclosing span.
    per_event = [
        (EventLoop, "pop", "serving.engine.events"),
        (EngineCore, "dispatch", "serving.engine.dispatch"),
        (EngineCore, "earliest_free_delay", "serving.engine.free_probe"),
        (Scheduler, "select_batch", "core.online.select_batch"),
        (ExecutionPath, "latency", "core.paths.latency"),
        (StreamingMetrics, "observe", "serving.metrics.observe"),
        (StreamingMetrics, "observe_many", "serving.metrics.observe_many"),
    ]
    per_event += [
        (cls, "select_node", "serving.routing.select_node")
        for cls in _subclasses_defining(Router, "select_node")
    ]
    per_event += [
        (cls, "select_region", "serving.region.select_region")
        for cls in _subclasses_defining(GeoRouter, "select_region")
    ]
    per_event += [
        (cache.NodeCache, method, "serving.cache")
        for method in ("preview_batch", "commit_batch", "lookup", "warm",
                       "rewarm", "affinity")
    ]
    for owner, attr, key in per_event:
        _patch(owner, attr, lambda f, key=key: count(key, f))

    # The lazily built popularity curve is imported by name into the
    # cache tier, so both bindings are wrapped.
    for module in (mp_cache, cache):
        _patch(module, "zipf_popularity_cdf",
               lambda f: count("core.mp_cache.popularity_cdf", f))
    _patch(fastpath, "plan_batches", lambda f: count(
        "serving.fastpath.plan_batches", f,
        on_result=lambda r: tracer.add("serving.fastpath.batches", len(r[0])),
    ))
    _patch(ControlPlane, "_choose", lambda f: count(
        "serving.controlplane.arbitrate", f,
        on_result=lambda r: tracer.add(
            "serving.controlplane.commits", r[0] is not None),
    ))

    sampler_init = ZipfSampler.__init__

    def counted_sampler(self, n, *args, **kwargs):
        tracer.add("data.zipf.samplers", 1)
        tracer.add("data.zipf.rows", int(n))
        sampler_init(self, n, *args, **kwargs)

    ZipfSampler.__init__ = counted_sampler
