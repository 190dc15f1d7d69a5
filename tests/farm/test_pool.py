"""SimulationFarm: backends, fault tolerance, retry/resume, merged metrics."""

import json

import pytest

from repro.farm import FarmReport, JobSpec, SimulationFarm


def make_jobs(n, **kwargs):
    base = dict(grid_size=16, steps=3)
    base.update(kwargs)
    return [JobSpec(job_id=f"job-{i}", seed=10 + i, **base) for i in range(n)]


class TestSerialBackend:
    def test_runs_all_jobs(self):
        farm = SimulationFarm(backend="serial")
        report = farm.run(make_jobs(3))
        assert len(report.completed) == 3
        assert report.total_steps == 9
        assert report.jobs_per_second > 0
        # merged farm profile sees every job's simulator counters
        assert report.metrics.timers["sim/step"].count == 9
        assert report.metrics.counter("farm/jobs") == 3

    def test_duplicate_job_ids_rejected(self):
        farm = SimulationFarm(backend="serial")
        jobs = make_jobs(2)
        with pytest.raises(ValueError, match="unique"):
            farm.run([jobs[0], jobs[0]])

    def test_report_round_trips_to_json(self):
        report = SimulationFarm(backend="serial").run(make_jobs(2))
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["completed"] == 2
        assert blob["backend"] == "serial"
        assert len(blob["results"]) == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationFarm(backend="gpu")


class TestProcessBackend:
    def test_eight_concurrent_jobs_with_injected_crash(self, tmp_path):
        # the ISSUE acceptance scenario: >= 8 concurrent jobs, one worker
        # hard-crashes mid-run, every job still completes (the crashed one
        # resumes from its checkpoint on retry)
        jobs = make_jobs(8, checkpoint_every=1, max_retries=2)
        jobs[3] = JobSpec(
            job_id="job-3",
            grid_size=16,
            seed=13,
            steps=3,
            checkpoint_every=1,
            max_retries=2,
            fail_at_step=2,
            fail_mode="crash",
        )
        farm = SimulationFarm(workers=4, backend="process", checkpoint_dir=tmp_path)
        report = farm.run(jobs)
        assert len(report.results) == 8
        assert len(report.completed) == 8
        crashed = next(r for r in report.results if r.job_id == "job-3")
        assert crashed.retries == 1
        assert crashed.resumed_from == 2  # resumed, not restarted
        assert report.metrics.counter("farm/worker_deaths") == 1
        assert report.metrics.counter("farm/retries") == 1
        # per-worker registries merged: every *surviving* attempt's steps
        # are visible (the crashed attempt died with its registry; its
        # retry resumed at step 2 and recorded only the final step)
        assert report.metrics.timers["sim/step"].count == 7 * 3 + 1

    def test_results_preserve_submission_order(self):
        report = SimulationFarm(workers=2, backend="process").run(make_jobs(4))
        assert [r.job_id for r in report.results] == [f"job-{i}" for i in range(4)]

    def test_timeout_kills_and_fails_after_retries(self):
        jobs = [
            JobSpec(
                job_id="slow",
                grid_size=48,
                seed=1,
                steps=500,
                timeout_seconds=0.6,
                max_retries=1,
            )
        ]
        farm = SimulationFarm(workers=1, backend="process")
        report = farm.run(jobs)
        assert len(report.failed) == 1
        assert "timeouts" in report.failed[0].error
        assert report.failed[0].retries == 1
        assert report.metrics.counter("farm/timeouts") == 2

    def test_result_landing_at_the_deadline_is_not_reaped_as_timeout(self, monkeypatch):
        """Timeout reap must grace-drain the queue like the death path.

        Regression: a worker that finished just as its deadline expired
        left its success in the queue and, with no retries left, the job
        was reported failed despite having completed.
        """
        import multiprocessing as mp
        import time

        import repro.farm.pool as pool_mod

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to monkeypatch the worker entry")

        real_entry = pool_mod._process_worker_entry

        def finishes_at_the_deadline(spec_dict, checkpoint_dir, attempt, out_queue, *extra):
            # the result lands ~0.2 s past the 0.5 s deadline — inside the
            # grace window the death path already honours
            time.sleep(0.7)
            real_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra)

        monkeypatch.setattr(pool_mod, "_process_worker_entry", finishes_at_the_deadline)
        jobs = [
            JobSpec(
                job_id="edge",
                grid_size=16,
                seed=3,
                steps=1,
                timeout_seconds=0.5,
                max_retries=0,
            )
        ]
        farm = SimulationFarm(workers=1, backend="process")
        report = farm.run(jobs)
        assert report.results[0].ok, report.results[0].error
        assert report.metrics.counter("farm/timeouts") == 0

    def test_hung_queue_feeder_does_not_stall_supervision(self, monkeypatch):
        """drain() must bound its join on a worker that already reported.

        Regression: ``entry[0].join()`` was unbounded, so a worker whose
        process lingered after shipping its result froze the supervision
        loop and every other job's timeout enforcement.
        """
        import multiprocessing as mp
        import time

        import repro.farm.pool as pool_mod

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to monkeypatch the worker entry")

        real_entry = pool_mod._process_worker_entry

        def lingering_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra):
            real_entry(spec_dict, checkpoint_dir, attempt, out_queue, *extra)
            time.sleep(30)  # result is shipped, but the process hangs around

        monkeypatch.setattr(pool_mod, "_process_worker_entry", lingering_entry)
        farm = SimulationFarm(workers=1, backend="process")
        t0 = time.monotonic()
        report = farm.run(make_jobs(1, steps=1))
        wall = time.monotonic() - t0
        assert report.results[0].ok
        assert wall < 15.0  # pre-fix: blocked the full 30 s sleep
        assert report.metrics.counter("farm/lingering_workers") == 1

    def test_in_run_degradation_inside_worker_process(self):
        jobs = [
            JobSpec(job_id="nn-fail", grid_size=16, seed=2, steps=3,
                    solver="nn", fail_at_step=1)
        ]
        report = SimulationFarm(workers=1, backend="process").run(jobs)
        assert report.results[0].ok
        assert report.results[0].degraded
        assert report.results[0].solver_used == "pcg"
        fallbacks = report.metrics.families.get("farm_pcg_fallbacks_total")
        assert fallbacks.value(solver="nn", scenario="smoke_plume") == 1


class TestBatchedBackend:
    def test_batched_nn_jobs_match_serial(self):
        # same seed -> same untrained model -> identical physics; the
        # batched backend must reproduce serial results exactly
        def jobs():
            return [
                JobSpec(job_id=f"nn-{i}", grid_size=16, seed=21, steps=3,
                        solver="nn", solver_params={"passes": 1})
                for i in range(3)
            ]

        serial = SimulationFarm(backend="serial").run(jobs())
        farm = SimulationFarm(workers=3, backend="batched")
        batched = farm.run(jobs())
        assert len(batched.completed) == 3
        for s, b in zip(serial.results, batched.results):
            assert b.final_divnorm == s.final_divnorm
            assert b.cum_divnorm == pytest.approx(s.cum_divnorm)
        # inference actually went through the stacked service
        assert batched.metrics.counter("farm/batch/dispatches") >= 1
        assert batched.metrics.counter("farm/batch/requests") == 9
        assert batched.metrics.timers["solver/nn/solve_batch"].count >= 1

    def test_mixed_solvers_run_and_only_nn_batches(self):
        jobs = [
            JobSpec(job_id="pcg-0", grid_size=16, seed=30, steps=2),
            JobSpec(job_id="nn-0", grid_size=16, seed=31, steps=2, solver="nn",
                    solver_params={"passes": 1}),
        ]
        report = SimulationFarm(workers=2, backend="batched").run(jobs)
        assert len(report.completed) == 2
        assert report.metrics.counter("farm/batch/requests") == 2

    def test_batched_degradation_unregisters(self):
        jobs = [
            JobSpec(job_id="nn-a", grid_size=16, seed=40, steps=3, solver="nn",
                    solver_params={"passes": 1}, fail_at_step=1),
            JobSpec(job_id="nn-b", grid_size=16, seed=40, steps=3, solver="nn",
                    solver_params={"passes": 1}),
        ]
        report = SimulationFarm(workers=2, backend="batched", batch_max_wait=0.02).run(jobs)
        assert len(report.completed) == 2
        degraded = next(r for r in report.results if r.job_id == "nn-a")
        assert degraded.degraded and degraded.solver_used == "pcg"


class TestFarmReport:
    def test_throughput_properties(self):
        from repro.farm import JobResult

        report = FarmReport(
            results=[
                JobResult(job_id="a", status="completed", steps_done=10),
                JobResult(job_id="b", status="failed", steps_done=4),
            ],
            backend="serial",
            workers=1,
            wall_seconds=2.0,
        )
        assert report.total_steps == 14
        assert report.jobs_per_second == 0.5
        assert report.steps_per_second == 7.0
        assert len(report.failed) == 1


class TestResizablePool:
    """The long-lived pool behind repro.serve: drain-on-shrink, cancel."""

    @staticmethod
    def _pool(results, workers=2, **kwargs):
        import threading

        from repro.farm.pool import Pool

        lock = threading.Lock()

        def on_result(r):
            with lock:
                results.append(r)

        return Pool(workers=workers, on_result=on_result, poll_seconds=0.01, **kwargs)

    @staticmethod
    def _wait(predicate, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_jobs_complete_and_results_are_delivered(self):
        results = []
        pool = self._pool(results, workers=2)
        for i in range(4):
            pool.submit(JobSpec(job_id=f"p{i}", grid_size=12, steps=2, seed=i))
        assert pool.drain(timeout=120)
        pool.shutdown()
        assert sorted(r.job_id for r in results) == ["p0", "p1", "p2", "p3"]
        assert all(r.ok for r in results)

    def test_shrink_drains_busy_workers_instead_of_killing_them(self):
        """Regression for the autoscaler path: resizing down mid-run must let
        every in-flight job finish (drain), never kill a busy worker."""
        results = []
        pool = self._pool(results, workers=3)
        for i in range(6):
            pool.submit(JobSpec(job_id=f"s{i}", grid_size=16, steps=5, seed=i))
        assert self._wait(lambda: pool.busy >= 2)  # workers mid-job
        pool.resize(1)  # scale down while they are busy
        assert pool.workers == 1
        assert pool.drain(timeout=240)
        # every job ran its full budget: nothing was killed or requeued
        assert sorted(r.job_id for r in results) == [f"s{i}" for i in range(6)]
        assert all(r.ok and r.steps_done == 5 for r in results)
        # the excess workers exit at a job boundary shortly after
        assert self._wait(lambda: pool.alive == 1)
        assert pool.metrics.counter("farm/pool/drained_exits") >= 2
        pool.shutdown()

    def test_grow_after_shrink_pays_down_drain_debt_first(self):
        pool = self._pool([], workers=4)
        pool.resize(1)
        pool.resize(3)  # net: one excess remains, no new threads needed
        assert pool.workers == 3
        assert self._wait(lambda: pool.alive == 3)
        pool.shutdown()

    def test_cancel_queued_job_never_runs(self):
        import threading

        # hold the only worker inside "long" (its job_start event blocks)
        # until "victim" is queued and cancelled, so no timing can let
        # "long" finish first and hand the worker to "victim"
        started, release = threading.Event(), threading.Event()

        def on_event(event):
            if event.get("type") == "job_start" and event.get("job_id") == "long":
                started.set()
                release.wait(60)

        results = []
        pool = self._pool(results, workers=1, on_event=on_event)
        pool.submit(JobSpec(job_id="long", grid_size=16, steps=6))
        assert started.wait(30)
        pool.submit(JobSpec(job_id="victim", grid_size=16, steps=6))
        assert pool.cancel("victim") == "queued"
        release.set()
        assert pool.drain(timeout=120)
        pool.shutdown()
        statuses = {r.job_id: r.status for r in results}
        assert statuses == {"long": "completed", "victim": "cancelled"}
        victim = next(r for r in results if r.job_id == "victim")
        assert victim.steps_done == 0

    def test_cancel_running_job_stops_at_step_boundary(self):
        results = []
        pool = self._pool(results, workers=1)
        pool.submit(JobSpec(job_id="run", grid_size=16, steps=400))
        assert self._wait(lambda: pool.busy == 1)
        assert pool.cancel("run") == "running"
        assert pool.drain(timeout=120)
        pool.shutdown()
        (res,) = results
        assert res.status == "cancelled"
        assert res.steps_done < 400

    def test_priority_orders_queued_jobs(self):
        import threading

        # hold the only worker inside "head" until both "low" and "high"
        # are queued, so "low" can never reach an idle worker first
        started, release = threading.Event(), threading.Event()

        def on_event(event):
            if event.get("type") == "job_start" and event.get("job_id") == "head":
                started.set()
                release.wait(60)

        results = []
        pool = self._pool(results, workers=1, on_event=on_event)
        pool.submit(JobSpec(job_id="head", grid_size=24, steps=8))
        assert started.wait(30)
        pool.submit(JobSpec(job_id="low", grid_size=12, steps=2), priority=5)
        pool.submit(JobSpec(job_id="high", grid_size=12, steps=2), priority=0)
        release.set()
        assert pool.drain(timeout=120)
        pool.shutdown()
        order = [r.job_id for r in results]
        assert order.index("high") < order.index("low")

    def test_duplicate_and_post_shutdown_submissions_rejected(self):
        pool = self._pool([], workers=1)
        pool.submit(JobSpec(job_id="a", grid_size=12, steps=2))
        with pytest.raises(ValueError, match="already in the pool"):
            pool.submit(JobSpec(job_id="a", grid_size=12, steps=2))
        assert pool.drain(timeout=60)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(JobSpec(job_id="b", grid_size=12, steps=2))

    def test_pool_startup_sweeps_orphaned_checkpoints(self, tmp_path):
        (tmp_path / "dead.smoke_plume.0badf00d.ckpt.npz.tmp").write_bytes(b"torn")
        pool = self._pool([], workers=1, checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert pool.metrics.counter("farm/orphan_checkpoints_swept") == 1
        pool.shutdown()
