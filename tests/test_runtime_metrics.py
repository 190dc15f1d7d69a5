"""Tests for the repro.metrics runtime-observability module."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    set_metrics,
)
from repro.trace import HistogramStat, Tracer, set_tracer


class TestCountersAndTimers:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.5)
        m.inc("b", 0.5)
        assert m.counter("a") == 3.5
        assert m.counter("b") == 0.5
        assert m.counter("missing") == 0.0

    def test_timer_records_statistics(self):
        m = MetricsRegistry()
        for _ in range(3):
            with m.measure("work"):
                pass
        stat = m.timers["work"]
        assert stat.count == 3
        assert stat.total >= stat.max >= stat.min >= 0.0
        assert stat.mean == pytest.approx(stat.total / 3)
        assert stat.min <= stat.quantile(0.5) <= stat.quantile(0.99) <= stat.max
        snap = m.to_dict()["timers"]["work"]
        assert snap["p50"] == stat.quantile(0.5) and snap["p99"] == stat.quantile(0.99)

    def test_measure_writes_timer_and_span_once(self):
        m = MetricsRegistry()
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with m.scope("sim"), m.measure("solve", backend="kernel") as sp:
                sp.attrs["iterations"] = 7
            with m.measure("other"):
                pass
        finally:
            set_tracer(previous)
        with m.measure("tracing_off") as none:
            assert none is None
        spans = {s.name: s for s in tracer.spans()}
        assert set(spans) == {"solve", "other"}
        assert spans["solve"].attrs == {"backend": "kernel", "iterations": 7}
        # one clock reading feeds both: the span's duration is the timer's
        assert m.timers["sim/solve"].total == spans["solve"].dur
        assert m.timers["tracing_off"].count == 1

    def test_disabled_registry_still_traces(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with NULL_METRICS.measure("solve") as sp:
                assert sp is not None
        finally:
            set_tracer(previous)
        assert [s.name for s in tracer.spans()] == ["solve"]
        assert NULL_METRICS.timers == {}

    def test_observe_records_explicit_durations(self):
        m = MetricsRegistry()
        m.observe("solve", 0.25)
        m.observe("solve", 0.75)
        stat = m.timers["solve"]
        assert stat.count == 2
        assert stat.total == 1.0
        assert stat.min == 0.25
        assert stat.max == 0.75

    def test_reset_clears_everything(self):
        m = MetricsRegistry()
        m.inc("a")
        m.observe("t", 1.0)
        m.reset()
        assert m.counters == {}
        assert m.timers == {}


class TestScopes:
    def test_scope_prefixes_names(self):
        m = MetricsRegistry()
        with m.scope("sim"):
            m.inc("steps")
            with m.scope("projection"):
                m.observe("solve", 0.1)
        m.inc("steps")
        assert m.counter("sim/steps") == 1.0
        assert m.counter("steps") == 1.0
        assert "sim/projection/solve" in m.timers

    def test_scope_restored_after_exception(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.scope("outer"):
                raise RuntimeError
        m.inc("after")
        assert m.counter("after") == 1.0

    def test_scopes_are_thread_local(self):
        """Two threads' scopes must not interleave on a shared registry.

        Regression (PR5): the prefix stack was a plain instance list, so a
        batched-backend worker thread entering ``scope`` mid-block could
        prepend its prefix to another thread's metric names.
        """
        m = MetricsRegistry()
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def worker(name):
            try:
                for _ in range(200):
                    with m.scope(name):
                        barrier.wait()  # both threads are inside their scope
                        m.inc("ticks")
                        with m.scope("inner"):
                            m.inc("ticks")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        # every metric landed under its own thread's prefix, nothing crossed
        assert m.counter("a/ticks") == 200
        assert m.counter("b/ticks") == 200
        assert m.counter("a/inner/ticks") == 200
        assert m.counter("b/inner/ticks") == 200
        cross = [k for k in m.counters if "a/b" in k or "b/a" in k]
        assert cross == []


class TestJSONRoundTrip:
    def test_round_trip_preserves_snapshot(self):
        m = MetricsRegistry()
        m.inc("solver/pcg/iterations", 40)
        m.observe("solver/pcg/solve", 0.125)
        m.observe("solver/pcg/solve", 0.5)
        with m.scope("sim"):
            m.inc("steps", 7)
        snapshot = m.to_dict()
        restored = MetricsRegistry.from_dict(json.loads(m.to_json()))
        assert restored.to_dict() == snapshot

    def test_empty_registry_round_trips(self):
        m = MetricsRegistry()
        assert MetricsRegistry.from_dict(json.loads(m.to_json())).to_dict() == m.to_dict()

    def test_timer_stat_round_trip_empty_min(self):
        stat = HistogramStat()
        assert HistogramStat.from_dict(stat.to_dict()).to_dict() == stat.to_dict()

    def test_historical_timer_snapshot_loads(self):
        """Snapshots written before timers carried buckets still restore."""
        old = {"count": 2, "total": 0.75, "min": 0.25, "max": 0.5, "mean": 0.375}
        m = MetricsRegistry.from_dict({"counters": {}, "timers": {"t": old}})
        stat = m.timers["t"]
        assert (stat.count, stat.total, stat.min, stat.max) == (2, 0.75, 0.25, 0.5)


class TestMerge:
    def test_counters_add_and_timers_combine(self):
        a = MetricsRegistry()
        a.inc("jobs", 2)
        a.observe("solve", 0.5)
        a.observe("solve", 1.5)
        b = MetricsRegistry()
        b.inc("jobs", 3)
        b.inc("retries")
        b.observe("solve", 0.25)
        b.observe("other", 1.0)
        a.merge(b)
        assert a.counter("jobs") == 5
        assert a.counter("retries") == 1
        stat = a.timers["solve"]
        assert stat.count == 3
        assert stat.total == 2.25
        assert stat.min == 0.25
        assert stat.max == 1.5
        assert a.timers["other"].count == 1

    def test_merge_accepts_snapshot_dict(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.inc("steps", 4)
        b.observe("t", 0.125)
        a.merge(b.to_dict())
        assert a.counter("steps") == 4
        assert a.timers["t"].count == 1

    def test_merge_is_commutative(self):
        def build(vals):
            m = MetricsRegistry()
            for v in vals:
                m.inc("n")
                m.observe("t", v)
            return m

        ab = build([0.1, 0.2]).merge(build([0.3]))
        ba = build([0.3]).merge(build([0.1, 0.2]))
        assert ab.to_dict() == ba.to_dict()

    def test_merge_with_empty_timer_keeps_min_empty_semantics(self):
        a = MetricsRegistry()
        a.timers["t"] = HistogramStat()
        b = MetricsRegistry()
        b.observe("t", 0.5)
        a.merge(b)
        assert a.timers["t"].min == 0.5
        assert a.timers["t"].max == 0.5
        assert a.timers["t"].count == 1


_durations = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=8
)


def _stat(values) -> HistogramStat:
    stat = HistogramStat()
    for v in values:
        stat.add(v)
    return stat


class TestTimerStatProperties:
    """A registry timer's stat (a ``HistogramStat``) has exact normal forms.

    Empty stats round-trip and merge exactly.  Regression (PR5): an empty
    timer stat used to serialise ``max=0.0``, so a restored empty stat was
    *not* a merge identity — merging it into real data could pull ``max``
    down to 0.  Both bounds now serialise as null and ``from_dict``
    normalises any ``count=0`` snapshot.
    """

    @given(_durations)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_exact_including_empty(self, values):
        stat = _stat(values)
        restored = HistogramStat.from_dict(json.loads(json.dumps(stat.to_dict())))
        assert restored == stat
        assert restored.to_dict() == stat.to_dict()

    @given(_durations, _durations)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutes_even_through_snapshots(self, xs, ys):
        direct, swapped = _stat(xs), _stat(ys)
        direct.merge(_stat(ys))
        swapped.merge(_stat(xs))
        assert direct.to_dict() == swapped.to_dict()
        # merging a *restored* stat behaves exactly like merging the original
        via_snapshot = _stat(xs)
        via_snapshot.merge(HistogramStat.from_dict(_stat(ys).to_dict()))
        assert via_snapshot.to_dict() == direct.to_dict()

    @given(_durations)
    @settings(max_examples=50, deadline=None)
    def test_restored_empty_stat_is_a_merge_identity(self, values):
        stat = _stat(values)
        before = stat.to_dict()
        stat.merge(HistogramStat.from_dict(HistogramStat().to_dict()))
        assert stat.to_dict() == before


class TestForkedDefaultRegistry:
    def test_forked_child_gets_fresh_registry(self):
        import multiprocessing as mp

        get_metrics().inc("parent_only")

        def child(q):
            from repro.metrics import get_metrics as gm

            m = gm()
            q.put((m.counter("parent_only"), "child" in m.counters))
            m.inc("child")
            q.put(gm().counter("child"))

        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        q = ctx.Queue()
        p = ctx.Process(target=child, args=(q,))
        p.start()
        p.join(30)
        assert p.exitcode == 0
        inherited, had_child = q.get(timeout=5)
        # the child saw a fresh registry, not the parent's accumulated one
        assert inherited == 0.0
        assert not had_child
        assert q.get(timeout=5) == 1.0
        # and the parent's registry is untouched by the child's writes
        assert get_metrics().counter("child") == 0.0


class TestDisabledAndGlobal:
    def test_null_metrics_is_noop(self):
        before = (dict(NULL_METRICS.counters), dict(NULL_METRICS.timers))
        NULL_METRICS.inc("x")
        with NULL_METRICS.measure("t"):
            pass
        with NULL_METRICS.scope("s"):
            NULL_METRICS.inc("y")
        assert (NULL_METRICS.counters, NULL_METRICS.timers) == before == ({}, {})

    def test_set_metrics_swaps_default(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            assert get_metrics() is mine
        finally:
            set_metrics(previous)
        assert get_metrics() is previous

    def test_reset_metrics_clears_default(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            get_metrics().inc("z")
            reset_metrics()
            assert get_metrics().counter("z") == 0.0
        finally:
            set_metrics(previous)


class TestInstrumentedComponents:
    def test_simulator_emits_profile(self):
        from repro.data import InputProblem
        from repro.fluid import FluidSimulator, PCGSolver

        metrics = MetricsRegistry()
        grid, source = InputProblem(16, 0).materialize()
        sim = FluidSimulator(
            grid, PCGSolver(metrics=metrics), source, metrics=metrics
        )
        sim.run(2)
        assert metrics.timers["sim/step"].count == 2
        assert metrics.timers["sim/projection/solve"].count == 2
        # solver reporting lands under the sim scope (shared registry)
        assert metrics.timers["sim/solver/pcg/solve"].count == 2
        assert metrics.counter("sim/cache/mic0/miss") == 1
        assert metrics.counter("sim/cache/mic0/hit") == 1

    def test_trainer_records_epoch_seconds(self):
        from repro.nn import Adam, MSELoss, Network, Dense, Trainer

        rng = np.random.default_rng(0)
        net = Network([Dense(4, 2, rng=0)])
        data = {"x": rng.standard_normal((8, 4)), "y": rng.standard_normal((8, 2))}
        metrics = MetricsRegistry()
        trainer = Trainer(net, MSELoss(), Adam(net.parameters()), rng=0, metrics=metrics)
        history = trainer.fit(data, epochs=3, batch_size=4)
        assert len(history.epoch_seconds) == 3
        assert all(s >= 0 for s in history.epoch_seconds)
        assert metrics.counter("train/epochs") == 3
        assert metrics.timers["train/epoch"].count == 3
