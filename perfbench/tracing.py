"""In-memory span recorder for the benchmark's traced runs.

The program is not instrumented for the benchmark: :func:`instrument`
wraps the public entry points of each layer (solver ``solve``,
``InferencePlan.run``, ``ResultCache.get``/``put``,
``SimulationService.submit``, ...) with spans for the duration of a traced
run and restores the originals afterwards.  Spans are kept in memory and
written out once, when the run ends.

A span is ``(name, start, end, span id, parent id, root id)``.  The root
id names the simulation or job the span belongs to: a span opened with no
parent on its thread starts a new root (``smart.run`` and ``fluid.run``
are one per simulation), and the serve spans of a job —
``serve.submit``, the worker's ``farm.run_job``, ``serve.cache_put`` — are
rooted at its job id.  Children inherit their parent's root.  Self time is
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Span", "SpanRecorder", "instrument"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    root: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: per-sample FLOPs of each compiled InferencePlan (set at build)
        self.plan_flops: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: forward FLOPs actually computed (per-sample FLOPs x batch rows)
        self.flops = 0.0

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: str | None = None):
        stack = self._stack()
        parent, parent_root = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        root = root or parent_root or f"r{span_id}"
        stack.append((span_id, root))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(name, start, end, span_id, parent, root))

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.named(name))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by direct children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.dur
        return {s.span_id: s.dur - child.get(s.span_id, 0.0) for s in self.spans}

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[s.span_id] for s in self.named(name))

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "id": s.span_id,
                "parent": s.parent,
                "root": s.root,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))
        return path


def _wrap(rec: SpanRecorder, owner, attr: str, name: str, root_of=None, after=None):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        root = root_of(*args, **kwargs) if root_of is not None else None
        with rec.span(name, root):
            out = original(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    setattr(owner, attr, wrapper)
    return owner, attr, original


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap each layer's public entry points with spans into ``rec``."""
    from repro.core import SmartFluidnet
    from repro.core.scheduler import AdaptiveController
    from repro.farm import pool as farm_pool
    from repro.farm import worker as farm_worker
    from repro.fluid import FluidSimulator, PCGSolver
    from repro.fluid.levelset import FreeSurfaceSolver
    from repro.models import NNProjectionSolver
    from repro.nn import InferencePlan
    from repro.serve import SimulationService
    from repro.serve.cache import ResultCache

    def plan_built(_none, plan, model, input_shape, *a, **k):
        rec.plan_flops[plan] = float(model.flops(tuple(input_shape)))

    def forward_done(_out, plan, x, *a, **k):
        with rec._lock:
            rec.flops += rec.plan_flops.get(plan, 0.0) * x.shape[0]

    patches = [
        _wrap(rec, SmartFluidnet, "run", "smart.run"),
        _wrap(rec, FluidSimulator, "run", "fluid.run"),
        _wrap(rec, FluidSimulator, "step", "fluid.step"),
        _wrap(rec, PCGSolver, "solve", "pcg.solve"),
        _wrap(rec, FreeSurfaceSolver, "solve", "freesurface.solve"),
        _wrap(rec, NNProjectionSolver, "solve", "nnsolver.solve"),
        _wrap(rec, InferencePlan, "__init__", "nn.plan_build", after=plan_built),
        _wrap(rec, InferencePlan, "run", "nn.forward", after=forward_done),
        _wrap(rec, AdaptiveController, "__call__", "sched.hook"),
        _wrap(rec, ResultCache, "get", "serve.cache_get"),
        _wrap(
            rec, ResultCache, "put", "serve.cache_put",
            root_of=lambda _cache, _key, result, *a, **k: result.job_id,
        ),
        _wrap(
            rec, SimulationService, "submit", "serve.submit",
            root_of=lambda _svc, spec, *a, **k: spec.job_id,
        ),
        # the pool calls run_job / the worker calls save_checkpoint through
        # their module globals, so those are the names to wrap
        _wrap(
            rec, farm_pool, "run_job", "farm.run_job",
            root_of=lambda spec, *a, **k: spec.job_id,
        ),
        _wrap(rec, farm_worker, "save_checkpoint", "farm.checkpoint"),
    ]
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
