"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each simulator and service
layer from outside the package (:func:`install` patches classes and
module functions; :meth:`Tracer.uninstall` restores them), so ``src/``
carries no tracing code.  Engine callbacks are attributed through the
engine's own profiler hook, ``Engine.set_profiler``:
:class:`CallbackProfiler` turns each dispatched callback into a span
whose self time is its wall time minus the wrapped entry points that ran
inside it.

Spans are aggregated as they close (per name: count, total time, self
time) because a WL-6 run dispatches about 700k of them.  Every span
belongs to a *lane*: one thread of work under a root span (one
benchmark operation, one sweep cell in a pool worker, or one service
connection's share of a round).  A lane's residual is its root time
minus the self time of every span attributed to a layer: the part of
the traced wall that no layer accounts for.

Pool workers are forked, so they inherit the patches.  A worker opens a
fresh lane per cell and rewrites ``<spool>/<pid>.json`` after each cell;
the parent merges those files in :meth:`Tracer.take`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time

clock = time.perf_counter

#: Engine callback owner prefix -> span name.  Callbacks of any other
#: owner are dispatched work no layer claims; they count as residual.
CALLBACK_LAYERS = (
    ("repro.dram.controller.MemoryController._pick", "controller.pick"),
    ("repro.dram.controller.MemoryController._complete", "controller.complete"),
    ("repro.cpu.", "cpu.issue"),
    ("repro.dram.refresh.", "refresh"),
    ("repro.os.", "os.tick"),
)
UNATTRIBUTED = "unattributed"


class Lane:
    """One thread of traced work: a span stack plus per-name totals."""

    __slots__ = ("stack", "agg", "counters", "root_s", "enabled")

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, start, child seconds]
        self.agg: dict[str, list] = {}  # name -> [count, total s, self s]
        self.counters: dict[str, int] = {}  # controller cost-model fields
        self.root_s = 0.0
        self.enabled = True

    def to_dict(self) -> dict:
        return {"root_s": self.root_s, "agg": self.agg, "counters": self.counters}

    def close(self, frame: list, end: float) -> None:
        total = end - frame[1]
        row = self.agg.get(frame[0])
        if row is None:
            self.agg[frame[0]] = [1, total, total - frame[2]]
        else:
            row[0] += 1
            row[1] += total
            row[2] += total - frame[2]
        if self.stack:
            self.stack[-1][2] += total
        else:
            self.root_s += total


class Tracer:
    """Span recorder for every lane of one process."""

    def __init__(self, spool: str):
        self.spool = spool
        self.local = threading.local()
        self.lanes: list[Lane] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    def lane(self) -> Lane | None:
        """This thread's lane, or None outside a root or inside an
        opaque span."""
        lane = getattr(self.local, "lane", None)
        return lane if lane is not None and lane.enabled else None

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a new lane for this thread, rooted at *name*."""
        if self._pid != os.getpid():  # first cell in a forked pool worker
            self._pid = os.getpid()
            self.lanes = []
            self._lock = threading.Lock()
        lane = Lane()
        with self._lock:
            self.lanes.append(lane)
        self.local.lane = lane
        frame = [name, clock(), 0.0]
        lane.stack.append(frame)
        try:
            yield lane
        finally:
            lane.stack.pop()
            lane.close(frame, clock())
            self.local.lane = None

    @contextlib.contextmanager
    def span(self, name: str):
        lane = self.lane()
        if lane is None:
            yield
            return
        frame = [name, clock(), 0.0]
        lane.stack.append(frame)
        try:
            yield
        finally:
            end = clock()
            lane.stack.pop()
            lane.close(frame, end)

    def wrap(self, name: str, fn, opaque: bool = False):
        """*fn* traced as span *name*.  An opaque span disables tracing
        for everything it calls."""
        local = self.local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lane = getattr(local, "lane", None)
            if lane is None or not lane.enabled:
                return fn(*args, **kwargs)
            stack = lane.stack
            frame = [name, clock(), 0.0]
            stack.append(frame)
            lane.enabled = not opaque
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                lane.enabled = True
                stack.pop()
                lane.close(frame, end)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spool_out(self) -> None:
        """Write this worker's lanes to the spool directory."""
        path = os.path.join(self.spool, f"{os.getpid()}.json")
        rows = [lane.to_dict() for lane in self.lanes]
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        os.replace(path + ".tmp", path)

    def take(self) -> list[dict]:
        """This process's lanes plus the spooled worker lanes, then
        start afresh with an empty spool."""
        rows = [lane.to_dict() for lane in self.lanes]
        self.lanes = []
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            if entry.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    rows.extend(json.load(fh))
            os.unlink(path)
        return rows


class CallbackProfiler:
    """``Engine.set_profiler`` hook that records callbacks as spans.

    The engine calls ``clock()`` before and after each callback and then
    ``record(fn, elapsed)``.  Spans closing between those calls ran
    inside the callback: their time comes off the callback's self time,
    and the callback's whole duration becomes a child of the enclosing
    ``engine.run`` span, whose self time is then pure dispatch.
    """

    def __init__(self, lane: Lane):
        self.lane = lane
        self._names: dict[object, str] = {}
        self._in_callback = False
        self._before = 0.0

    def clock(self) -> float:
        if not self._in_callback:
            self._in_callback = True
            self._before = self.lane.stack[-1][2]
        return clock()

    def record(self, fn, elapsed: float) -> None:
        lane = self.lane
        self._in_callback = False
        frame = lane.stack[-1]
        inner = frame[2] - self._before
        frame[2] = self._before + elapsed
        target = getattr(fn, "__func__", fn)
        name = self._names.get(target)
        if name is None:
            owner = f"{target.__module__}.{target.__qualname__}"
            name = next(
                (span for prefix, span in CALLBACK_LAYERS if owner.startswith(prefix)),
                UNATTRIBUTED,
            )
            self._names[target] = name
        row = lane.agg.get(name)
        if row is None:
            lane.agg[name] = [1, elapsed, elapsed - inner]
        else:
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - inner


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    from repro.core import simulator
    from repro.core.runspec import RunSpec
    from repro.core.system import System
    from repro.dram.controller import MemoryController
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.workloads.benchmark import StatisticalWorkload

    entry_points = (
        (StatisticalWorkload, "next_access", "workloads.next_access"),
        (MemoryController, "enqueue", "controller.enqueue"),
        (System, "restore_state", "checkpoint.restore"),
        (RunSpec, "content_hash", "sweep.spec_hash"),
        (ResultCache, "get", "sweep.cache_get"),
        (ResultCache, "put", "sweep.cache_put"),
        (ServiceClient, "submit", "service.submit"),
    )
    for owner, attr, name in entry_points:
        tracer.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
    # A warm-start store miss simulates the warm-up prefix.  Whether both
    # pool workers miss on a workload's first cells depends on timing, so
    # the prefix counts as checkpoint time and its events stay out of the
    # counts, which must repeat exactly.
    tracer.patch(
        simulator,
        "warm_start_state",
        tracer.wrap("checkpoint.warm_start", simulator.warm_start_state, opaque=True),
    )

    system_init = System.__init__
    system_run = System.run

    @functools.wraps(system_init)
    def init(self, *args, **kwargs):
        with tracer.span("os.alloc"):
            system_init(self, *args, **kwargs)
        lane = tracer.lane()
        if lane is not None:
            self.engine.set_profiler(CallbackProfiler(lane))

    @functools.wraps(system_run)
    def run(self, *args, **kwargs):
        lane = tracer.lane()
        with tracer.span("engine.run"):
            result = system_run(self, *args, **kwargs)
        if lane is not None:
            for key, value in self.controller.dispatch_cost_model().items():
                if isinstance(value, int):
                    lane.counters[key] = lane.counters.get(key, 0) + value
        return result

    tracer.patch(System, "__init__", init)
    tracer.patch(System, "run", run)

    class TimedPool(runner.ProcessPoolExecutor):
        """The sweep's process pool, spanned from entry to shutdown."""

        def __enter__(self):
            self._span = tracer.span("sweep.pool")
            self._span.__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                self._span.__exit__(None, None, None)

    global _TRACER, _EXECUTE
    _TRACER, _EXECUTE = tracer, runner.execute_run_spec
    tracer.patch(runner, "execute_run_spec", traced_cell)
    tracer.patch(runner, "ProcessPoolExecutor", TimedPool)


_TRACER: Tracer | None = None
_EXECUTE = None


def traced_cell(spec, checkpoint_store=None):
    """One sweep cell in a pool worker, as the root of its own lane.

    Module-level so the pool can pickle it by name; forked workers see
    the globals :func:`install` set."""
    with _TRACER.root("sweep.cell"):
        result = _EXECUTE(spec, checkpoint_store=checkpoint_store)
    _TRACER.spool_out()
    return result
