"""Batched NN solve: stacked inference matches per-sample solves exactly."""

import numpy as np
import pytest

from repro.fluid import make_smoke_plume
from repro.metrics import MetricsRegistry
from repro.models import NNProjectionSolver, tompson_arch
from repro.nn import Conv2d


def problem(seed, size=16):
    grid, _ = make_smoke_plume(size, size, rng=seed)
    rng = np.random.default_rng(seed + 100)
    b = np.where(grid.fluid, rng.standard_normal(grid.solid.shape), 0.0)
    return b, grid.solid


class TestSolveMany:
    def test_batch_matches_per_sample_solves(self):
        problems = [problem(s) for s in range(4)]  # four different masks
        batched_solver = NNProjectionSolver(
            tompson_arch(4).build(rng=0), passes=2, metrics=MetricsRegistry()
        )
        batched = batched_solver.solve_many(
            [b for b, _ in problems], [s for _, s in problems]
        )
        for (b, solid), res in zip(problems, batched):
            single_solver = NNProjectionSolver(
                tompson_arch(4).build(rng=0), passes=2, metrics=MetricsRegistry()
            )
            ref = single_solver.solve(b, solid)
            np.testing.assert_array_equal(res.pressure, ref.pressure)
            assert res.iterations == ref.iterations
            assert res.residual_norm == ref.residual_norm
            assert res.flops == ref.flops

    def test_empty_batch(self):
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), metrics=MetricsRegistry())
        assert solver.solve_many([], []) == []

    def test_shape_mismatch_rejected(self):
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), metrics=MetricsRegistry())
        b1, s1 = problem(0, 16)
        b2, s2 = problem(1, 20)
        with pytest.raises(ValueError, match="shared shape"):
            solver.solve_many([b1, b2], [s1, s2])
        with pytest.raises(ValueError, match="masks"):
            solver.solve_many([b1], [s1, s1])

    def test_all_solid_sample_inside_batch(self):
        b1, s1 = problem(2)
        solid = np.ones_like(s1)
        results = NNProjectionSolver(
            tompson_arch(4).build(rng=0), metrics=MetricsRegistry()
        ).solve_many([b1, np.zeros_like(b1)], [s1, solid])
        assert results[1].converged
        np.testing.assert_array_equal(results[1].pressure, 0.0)
        assert results[1].iterations == 0

    def test_batch_counters_recorded(self):
        metrics = MetricsRegistry()
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=1, metrics=metrics)
        probs = [problem(s) for s in range(3)]
        solver.solve_many([b for b, _ in probs], [s for _, s in probs])
        assert metrics.timers["solver/nn/solve_batch"].count == 1
        assert metrics.counter("solver/nn/batched_samples") == 3

    def test_single_sample_path_unchanged_through_solve(self):
        b, solid = problem(3)
        metrics = MetricsRegistry()
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=2, metrics=metrics)
        res = solver.solve(b, solid)
        assert res.iterations == 2
        assert metrics.timers["solver/nn/solve"].count == 1


class TestBatchedInferenceService:
    def test_single_request_matches_direct_solve(self):
        from repro.farm import BatchedInferenceService

        b, solid = problem(0)
        direct = NNProjectionSolver(
            tompson_arch(4).build(rng=0), passes=2, metrics=MetricsRegistry()
        ).solve(b, solid)
        service = BatchedInferenceService(
            NNProjectionSolver(tompson_arch(4).build(rng=0), passes=2,
                               metrics=MetricsRegistry()),
            metrics=MetricsRegistry(),
        )
        via_service = service.solve(b, solid)
        np.testing.assert_array_equal(via_service.pressure, direct.pressure)

    def test_partial_batch_dispatches_after_max_wait(self):
        from repro.farm import BatchedInferenceService

        metrics = MetricsRegistry()
        service = BatchedInferenceService(
            NNProjectionSolver(tompson_arch(4).build(rng=0), passes=1,
                               metrics=metrics),
            max_wait=0.01,
            metrics=metrics,
        )
        service.register()
        service.register()  # second participant never submits
        try:
            b, solid = problem(1)
            res = service.solve(b, solid)  # must not deadlock
            assert res.iterations == 1
            assert metrics.counter("farm/batch/dispatches") == 1
            assert metrics.counter("farm/batch/requests") == 1
        finally:
            service.unregister()
            service.unregister()
        assert service.participants == 0

    def test_two_threads_share_one_stacked_pass(self):
        import threading

        from repro.farm import BatchedInferenceService

        metrics = MetricsRegistry()
        service = BatchedInferenceService(
            NNProjectionSolver(tompson_arch(4).build(rng=0), passes=1,
                               metrics=metrics),
            max_wait=5.0,  # long: only a full batch may dispatch
            metrics=metrics,
        )
        service.register()
        service.register()
        problems = [problem(0), problem(1)]
        results = [None, None]

        def worker(i):
            b, solid = problems[i]
            results[i] = service.solve(b, solid)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert all(r is not None for r in results)
        assert metrics.counter("farm/batch/dispatches") == 1
        assert metrics.counter("farm/batch/requests") == 2
        # the stacked pass matches per-sample reference solves
        for (b, solid), res in zip(problems, results):
            ref = NNProjectionSolver(
                tompson_arch(4).build(rng=0), passes=1, metrics=MetricsRegistry()
            ).solve(b, solid)
            np.testing.assert_array_equal(res.pressure, ref.pressure)


class _GatedSolver:
    """Stub solver whose first dispatch blocks until released.

    Lets a test hold the service ``_busy`` while other requests queue up,
    reproducing the long-leader-dispatch contention window.
    """

    name = "gated"

    def __init__(self):
        import threading

        self.calls = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._first = True

    def solve_many(self, bs, solids):
        from repro.fluid.solver_api import SolveResult

        self.calls.append(len(bs))
        if self._first:
            self._first = False
            self.started.set()
            assert self.release.wait(10)
        return [SolveResult(np.zeros_like(b), 1, True, 0.0) for b in bs]


class TestDeadlineRearm:
    def test_full_batches_reform_after_a_long_dispatch(self):
        """Requests that waited out a dispatch must not expire instantly.

        Regression: the grace deadline was fixed at submit time, so a
        request that queued behind a long leader dispatch was already
        "expired" when the leader finished and fragmented into a partial
        batch instead of waiting for the rest of the participants.
        """
        import threading
        import time

        from repro.farm import BatchedInferenceService

        metrics = MetricsRegistry()
        solver = _GatedSolver()
        service = BatchedInferenceService(solver, max_wait=0.25, metrics=metrics)
        service.register()
        service.register()
        b, solid = problem(0)
        threads = []

        def submit():
            service.solve(b, solid)

        # B: alone, times out its grace period, dispatches a batch of 1,
        # then blocks inside the gated solver
        threads.append(threading.Thread(target=submit))
        threads[-1].start()
        assert solver.started.wait(10)
        # C: queues while B's dispatch is in flight, long enough for its
        # submit-time deadline to expire
        threads.append(threading.Thread(target=submit))
        threads[-1].start()
        time.sleep(0.35)
        solver.release.set()
        # D: arrives just after B completes — C must still be waiting so
        # the two of them form one full batch
        time.sleep(0.05)
        threads.append(threading.Thread(target=submit))
        threads[-1].start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert solver.calls == [1, 2]
        assert metrics.counter("farm/batch/dispatches") == 2
        assert metrics.counter("farm/batch/partial") == 1

    def test_dispatch_prewarms_shared_solver_plan_at_capacity(self):
        import threading

        from repro.farm import BatchedInferenceService

        metrics = MetricsRegistry()
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=1,
                                    metrics=metrics)
        service = BatchedInferenceService(solver, max_wait=5.0, metrics=metrics)
        service.register()
        service.register()
        problems = [problem(0), problem(1)]
        threads = [
            threading.Thread(target=lambda i=i: service.solve(*problems[i]))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert solver._plan is not None
        assert solver._plan.capacity == 2
        assert metrics.timers["solver/nn/plan_build"].count == 1


class TestConvWorkspaceCapacity:
    def test_shrinking_batch_reuses_workspace(self):
        conv = Conv2d(2, 4, rng=0)
        x8 = np.random.default_rng(0).standard_normal((8, 2, 12, 12))
        out8 = conv.forward(x8, training=False)
        reuses = conv.workspace_reuses
        out3 = conv.forward(x8[:3], training=False)
        assert conv.workspace_reuses == reuses + 1  # no reallocation
        np.testing.assert_allclose(out3, out8[:3], atol=1e-12)

    def test_growing_batch_reallocates_correctly(self):
        conv = Conv2d(2, 4, rng=0)
        x2 = np.random.default_rng(1).standard_normal((2, 2, 12, 12))
        conv.forward(x2, training=False)
        x5 = np.random.default_rng(2).standard_normal((5, 2, 12, 12))
        out5 = conv.forward(x5, training=False)
        ref = Conv2d(2, 4, rng=0).forward(x5, training=False)
        np.testing.assert_array_equal(out5, ref)
