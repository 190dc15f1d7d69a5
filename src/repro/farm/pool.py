"""The simulation farm: concurrent job execution with fault tolerance.

:class:`SimulationFarm` runs a list of :class:`~repro.farm.jobs.JobSpec`
through one of three backends:

``process`` (default)
    One OS process per running job, up to ``workers`` slots.  The parent
    monitors every worker: a result on the queue completes the job; a dead
    process without a result (crash, OOM kill) or a per-job timeout gets
    the job requeued up to ``spec.max_retries`` times, resuming from its
    latest checkpoint.  Worker registries are shipped back inside each
    :class:`~repro.farm.jobs.JobResult` and merged into the farm profile.

``batched``
    One thread per job inside this process, NN jobs sharing one
    :class:`~repro.farm.batching.BatchedInferenceService` so concurrent
    pressure projections run as stacked CNN forward passes.

``serial``
    Jobs run inline one after another — the baseline the farm's throughput
    is measured against (``repro bench``, ``BENCH_pr2.json``).

In-run failures (NN raising, divergence, injected faults) never reach the
pool: :func:`~repro.farm.worker.run_job` degrades those to exact PCG
internally.  The pool only handles *hard* faults — the ones a single
process cannot survive.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.metrics import MetricsRegistry, set_metrics
from repro.trace import Tracer, set_tracer

from .checkpoint import sweep_orphans
from .jobs import JobResult, JobSpec
from .telemetry import FleetView
from .worker import _WORKER_ENV, build_solver, run_job

__all__ = ["FarmReport", "SimulationFarm", "Pool", "BACKENDS"]

BACKENDS = ("process", "batched", "serial")


@dataclass
class FarmReport:
    """Aggregate outcome of one farm submission."""

    results: list[JobResult]
    backend: str
    workers: int
    wall_seconds: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def completed(self) -> list[JobResult]:
        """Jobs that ran their full step budget."""
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[JobResult]:
        """Jobs that exhausted retries or degradations."""
        return [r for r in self.results if not r.ok]

    @property
    def total_steps(self) -> int:
        """Simulation steps completed across all jobs."""
        return sum(r.steps_done for r in self.results)

    @property
    def jobs_per_second(self) -> float:
        """Completed jobs per wall-clock second of the submission."""
        return len(self.completed) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def steps_per_second(self) -> float:
        """Simulation steps per wall-clock second of the submission."""
        return self.total_steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """Plain-JSON representation of the report."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "jobs": len(self.results),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "total_steps": self.total_steps,
            "jobs_per_second": self.jobs_per_second,
            "steps_per_second": self.steps_per_second,
            "results": [r.to_dict() for r in self.results],
            "metrics": self.metrics.to_dict(),
        }


def _process_worker_entry(
    spec_dict: dict,
    checkpoint_dir: str | None,
    attempt: int,
    out_queue,
    trace: bool = False,
    heartbeat_seconds: float = 0.5,
) -> None:
    """Worker-process main: run one job, streaming events + the result back.

    Queue protocol: tagged tuples ``("event", job_id, attempt, event_dict)``
    for in-flight telemetry and exactly one terminal
    ``("result", job_id, attempt, result_dict)``.
    """
    os.environ[_WORKER_ENV] = "1"
    m = MetricsRegistry()
    set_metrics(m)  # the worker's whole profile lands in one shippable registry
    set_tracer(Tracer(enabled=trace))  # private per-process tracer, shipped in the result
    spec = JobSpec.from_dict(spec_dict)

    def on_event(event: dict) -> None:
        out_queue.put(("event", spec.job_id, attempt, event))

    try:
        result = run_job(
            spec,
            checkpoint_dir,
            metrics=m,
            attempt=attempt,
            on_event=on_event,
            heartbeat_seconds=heartbeat_seconds,
            attach_trace=True,
        )
    except BaseException as exc:  # harness-level error: report, don't hang the farm
        result = JobResult(
            job_id=spec.job_id,
            status="failed",
            retries=attempt,
            error=f"{type(exc).__name__}: {exc}",
            metrics=m.to_dict(),
        )
    out_queue.put(("result", spec.job_id, attempt, result.to_dict()))


class SimulationFarm:
    """Execute many simulation jobs concurrently, tolerating worker faults.

    Parameters
    ----------
    workers:
        Concurrent job slots (default: CPU count, capped at 8).
    backend:
        ``"process"``, ``"batched"`` or ``"serial"`` (see module docstring).
    checkpoint_dir:
        Directory for job checkpoints.  Defaults to a temporary directory
        that lives for the duration of one :meth:`run` call — long enough
        for crash-retry resume, cleaned up afterwards.
    metrics:
        Farm-level registry all per-worker profiles are merged into.
    poll_seconds:
        Parent supervision cadence of the process backend.
    batch_max_wait:
        ``max_wait`` of the batched backend's inference service.
    on_event:
        Optional callback receiving every worker telemetry event (plain
        dict) as it arrives; the farm's own :attr:`fleet` view is always
        updated regardless.  May be called from supervision or worker
        threads — must be thread-safe.
    trace:
        Enable structured tracing: workers run with an enabled
        :class:`repro.trace.Tracer` and the farm merges their spans and
        events into :attr:`tracer`.
    heartbeat_seconds:
        Minimum spacing of per-job ``heartbeat`` progress events.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "process",
        checkpoint_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        poll_seconds: float = 0.02,
        batch_max_wait: float = 0.05,
        on_event=None,
        trace: bool = False,
        heartbeat_seconds: float = 0.5,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.workers = workers if workers is not None else min(8, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.poll_seconds = poll_seconds
        self.batch_max_wait = batch_max_wait
        self.on_event = on_event
        self.trace = trace
        self.heartbeat_seconds = heartbeat_seconds
        #: live per-job telemetry folded from worker event streams
        self.fleet = FleetView()
        #: farm-level tracer; workers' traces merge here when ``trace=True``
        self.tracer = Tracer(enabled=trace)

    def _dispatch_event(self, event: dict) -> None:
        """Fold one worker event into the fleet and the user callback."""
        self.fleet.observe(event)
        if self.on_event is not None:
            self.on_event(event)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec]) -> FarmReport:
        """Run all jobs to a terminal state and return the merged report."""
        jobs = list(jobs)
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job_ids within one submission must be unique")
        self.fleet.expect(ids, {j.job_id: j.steps for j in jobs})
        t0 = time.perf_counter()
        tmp: tempfile.TemporaryDirectory | None = None
        ckpt_dir = self.checkpoint_dir
        if ckpt_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-farm-")
            ckpt_dir = tmp.name
        # no worker is running yet, so every leftover ``.tmp`` is a torn
        # write from an earlier (killed) run — sweep before dispatching
        swept = sweep_orphans(ckpt_dir)
        if swept:
            self.metrics.inc("farm/orphan_checkpoints_swept", len(swept))
        try:
            runner = {
                "process": self._run_process,
                "batched": self._run_batched,
                "serial": self._run_serial,
            }[self.backend]
            results = runner(jobs, str(ckpt_dir))
        finally:
            if tmp is not None:
                tmp.cleanup()
        wall = time.perf_counter() - t0
        for r in results:
            self.metrics.merge(r.metrics)
            if r.trace:
                # process-backend workers ship their private tracer back;
                # serial/batched workers already wrote into self.tracer
                self.tracer.merge(r.trace)
        self.metrics.inc("farm/jobs", len(results))
        self.metrics.inc("farm/jobs_completed", sum(1 for r in results if r.ok))
        self.metrics.inc("farm/jobs_failed", sum(1 for r in results if not r.ok))
        order = {job_id: i for i, job_id in enumerate(ids)}
        results.sort(key=lambda r: order[r.job_id])
        return FarmReport(
            results=results,
            backend=self.backend,
            workers=self.workers,
            wall_seconds=wall,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: list[JobSpec], ckpt_dir: str) -> list[JobResult]:
        previous = set_tracer(self.tracer)
        try:
            return [
                run_job(
                    spec,
                    ckpt_dir,
                    metrics=MetricsRegistry(),
                    on_event=self._dispatch_event,
                    heartbeat_seconds=self.heartbeat_seconds,
                )
                for spec in jobs
            ]
        finally:
            set_tracer(previous)

    # ------------------------------------------------------------------
    def _run_process(self, jobs: list[JobSpec], ckpt_dir: str) -> list[JobResult]:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        out_queue: mp.Queue = ctx.Queue()
        pending: deque[tuple[JobSpec, int]] = deque((spec, 0) for spec in jobs)
        running: dict[str, tuple[mp.Process, JobSpec, int, float]] = {}
        results: dict[str, JobResult] = {}

        def reap(job_id: str, spec: JobSpec, attempt: int, reason: str) -> None:
            """Handle a worker that died or overran without reporting."""
            self.metrics.inc(f"farm/{reason}")
            if attempt < spec.max_retries:
                self.metrics.inc("farm/retries")
                pending.append((spec, attempt + 1))
            else:
                results[job_id] = JobResult(
                    job_id=job_id,
                    status="failed",
                    retries=attempt,
                    error=f"worker {reason} after {attempt + 1} attempt(s)",
                )

        def drain(block_seconds: float) -> None:
            """Dispatch queued worker messages: events to the fleet, results in."""
            block = block_seconds
            while True:
                try:
                    tag, job_id, attempt, payload = out_queue.get(timeout=block)
                except queue_mod.Empty:
                    return
                block = 0.0  # only the first get blocks
                if tag == "event":
                    self._dispatch_event(payload)
                    continue
                result_dict = payload
                entry = running.get(job_id)
                if entry is not None and entry[2] == attempt:
                    proc = entry[0]
                    # bounded join: the result is already in hand, so a
                    # worker whose queue feeder hangs must not stall the
                    # supervision loop (and every other job's timeout)
                    proc.join(1.0)
                    if proc.is_alive():
                        self.metrics.inc("farm/lingering_workers")
                        proc.terminate()
                        proc.join(5.0)
                        if proc.is_alive():  # pragma: no cover - stubborn worker
                            proc.kill()
                            proc.join(5.0)
                    proc.close()
                    del running[job_id]
                    results[job_id] = JobResult.from_dict(result_dict)
                # else: stale result of a superseded attempt — drop it

        while pending or running:
            while pending and len(running) < self.workers:
                spec, attempt = pending.popleft()
                proc = ctx.Process(
                    target=_process_worker_entry,
                    args=(
                        spec.to_dict(),
                        ckpt_dir,
                        attempt,
                        out_queue,
                        self.trace,
                        self.heartbeat_seconds,
                    ),
                    daemon=True,
                )
                proc.start()
                deadline = (
                    time.monotonic() + spec.timeout_seconds
                    if spec.timeout_seconds is not None
                    else float("inf")
                )
                running[spec.job_id] = (proc, spec, attempt, deadline)

            drain(self.poll_seconds)

            now = time.monotonic()
            for job_id, (proc, spec, attempt, deadline) in list(running.items()):
                if job_id not in running:
                    continue  # completed during a grace drain below
                if not proc.is_alive():
                    # the exit may have raced its own result through the
                    # queue: give the pipe a moment before declaring death
                    grace = time.monotonic() + 0.5
                    while job_id in running and time.monotonic() < grace:
                        drain(0.02)
                    if job_id not in running:
                        continue
                    proc.join()
                    proc.close()
                    del running[job_id]
                    reap(job_id, spec, attempt, "worker_deaths")
                elif now >= deadline:
                    # the worker may have finished right at the deadline
                    # with its result still in the pipe: grace-drain before
                    # declaring a timeout, exactly like the death path
                    grace = time.monotonic() + 0.5
                    while job_id in running and time.monotonic() < grace:
                        drain(0.02)
                    if job_id not in running:
                        continue
                    proc.terminate()
                    proc.join(5.0)
                    if proc.is_alive():  # pragma: no cover - stubborn worker
                        proc.kill()
                        proc.join(5.0)
                    proc.close()
                    del running[job_id]
                    reap(job_id, spec, attempt, "timeouts")
        out_queue.close()
        return list(results.values())

    # ------------------------------------------------------------------
    def _run_batched(self, jobs: list[JobSpec], ckpt_dir: str) -> list[JobResult]:
        from repro.models import NNProjectionSolver, tompson_arch

        from .batching import BatchedInferenceService, BatchingSolverProxy

        nn_jobs = [j for j in jobs if j.solver == "nn"]
        service: BatchedInferenceService | None = None
        if nn_jobs:
            # the shared model: seeded by the first NN job so a single-job
            # batched farm matches its serial counterpart exactly
            first = nn_jobs[0]
            shared = build_solver(first, "nn", self.metrics)
            assert isinstance(shared, NNProjectionSolver)
            service = BatchedInferenceService(
                shared, max_wait=self.batch_max_wait, metrics=self.metrics
            )

        registered: dict[str, bool] = {}

        def leave_service(spec: JobSpec) -> None:
            if service is not None and registered.get(spec.job_id):
                registered[spec.job_id] = False
                service.unregister()

        def solver_factory(spec: JobSpec, kind: str, metrics: MetricsRegistry):
            if kind == "nn" and service is not None:
                return BatchingSolverProxy(service)
            leave_service(spec)  # degraded away from NN: stop batching on this job
            return build_solver(spec, kind, metrics)

        results: list[JobResult | None] = [None] * len(jobs)
        sem = threading.Semaphore(self.workers)

        def runner(i: int, spec: JobSpec) -> None:
            with sem:
                # register only once actually running, so queued jobs
                # don't make live batches wait for them
                if service is not None and spec.solver == "nn":
                    registered[spec.job_id] = True
                    service.register()
                m = MetricsRegistry()
                try:
                    results[i] = run_job(
                        spec,
                        ckpt_dir,
                        metrics=m,
                        solver_factory=solver_factory,
                        on_event=self._dispatch_event,
                        heartbeat_seconds=self.heartbeat_seconds,
                    )
                except BaseException as exc:
                    results[i] = JobResult(
                        job_id=spec.job_id,
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                        metrics=m.to_dict(),
                    )
                finally:
                    leave_service(spec)

        threads = [
            threading.Thread(target=runner, args=(i, spec), daemon=True)
            for i, spec in enumerate(jobs)
        ]
        # job threads share the farm tracer via the process default; the
        # tracer's per-thread buffers keep concurrent spans lock-free
        previous = set_tracer(self.tracer)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            set_tracer(previous)
        return [r for r in results if r is not None]


# ----------------------------------------------------------------------
# the long-lived pool behind the serve tier
# ----------------------------------------------------------------------
class Pool:
    """A long-lived, *resizable* worker pool executing farm jobs.

    Where :class:`SimulationFarm` is batch-shaped (run one job list, exit),
    a :class:`Pool` stays up for the lifetime of a service: jobs arrive one
    at a time through :meth:`submit` into a priority queue, a fleet of
    worker threads pulls them through :func:`~repro.farm.worker.run_job`,
    and finished :class:`~repro.farm.jobs.JobResult`\\ s are delivered to
    the ``on_result`` callback (from the worker thread that produced them).

    The pool is the autoscaling substrate of :mod:`repro.serve`:

    * :meth:`resize` *grows* by spawning threads immediately and *shrinks*
      by draining — excess workers finish their current job and exit at
      the next job boundary; a busy worker is **never** killed mid-job.
    * :meth:`cancel` removes a queued job without running it, or sets the
      cooperative cancel flag of a running one (honoured by ``run_job`` at
      its next step boundary).
    * in-run failures degrade gracefully inside ``run_job`` exactly as on
      the farm; a harness-level exception becomes a ``failed`` result
      rather than a dead worker.

    All public methods are thread-safe; callbacks run on worker threads
    and must be thread-safe themselves.
    """

    _SENTINEL_PRIORITY = 1 << 30  # wake-up tokens sort after every real job

    def __init__(
        self,
        workers: int = 1,
        checkpoint_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        on_event=None,
        on_result=None,
        heartbeat_seconds: float = 0.5,
        poll_seconds: float = 0.05,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_event = on_event
        self.on_result = on_result
        self.heartbeat_seconds = heartbeat_seconds
        self.poll_seconds = poll_seconds
        if self.checkpoint_dir is not None:
            swept = sweep_orphans(self.checkpoint_dir)
            if swept:
                self.metrics.inc("farm/orphan_checkpoints_swept", len(swept))
        self._queue: queue_mod.PriorityQueue = queue_mod.PriorityQueue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._target = 0
        self._excess = 0  # shrink debt: workers asked to exit at the next boundary
        self._seq = 0
        self._queued: dict[str, JobSpec] = {}
        self._queued_at: dict[str, float] = {}
        # per-job lifecycle latencies, derived from the pool's own event
        # stream (submit -> pickup -> terminal); worker-side labeled series
        # ride home inside result.metrics and fold in _deliver's merge
        families = self.metrics.families
        self._queue_wait_hist = families.histogram(
            "farm_queue_wait_seconds",
            help="Submit-to-pickup wait of pool jobs.",
            unit="seconds",
        )
        self._job_run_hist = families.histogram(
            "farm_job_run_seconds",
            help="Worker-side job execution time by terminal status.",
            labels=("status",),
            unit="seconds",
        )
        self._jobs_by_status = families.counter(
            "farm_jobs_total",
            help="Terminal pool jobs by status.",
            labels=("status",),
        )
        self._cancelled_queued: set[str] = set()
        self._running: dict[str, threading.Event] = {}
        self._shutdown = False
        self.resize(workers)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Target worker count (the last :meth:`resize` value)."""
        with self._lock:
            return self._target

    @property
    def alive(self) -> int:
        """Worker threads currently alive (> target while draining a shrink)."""
        with self._lock:
            return len(self._threads)

    @property
    def busy(self) -> int:
        """Workers currently executing a job."""
        with self._lock:
            return len(self._running)

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        with self._lock:
            return len(self._queued)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, priority: int = 1) -> None:
        """Enqueue one job; lower ``priority`` numbers run first."""
        if priority >= self._SENTINEL_PRIORITY:
            raise ValueError(f"priority must be < {self._SENTINEL_PRIORITY}")
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            if spec.job_id in self._queued or spec.job_id in self._running:
                raise ValueError(f"job_id {spec.job_id!r} is already in the pool")
            self._seq += 1
            self._queued[spec.job_id] = spec
            self._queued_at[spec.job_id] = time.monotonic()
            self._queue.put((priority, self._seq, spec))
        self.metrics.inc("farm/pool/submitted")

    def cancel(self, job_id: str) -> str:
        """Cancel a job: ``"queued"`` | ``"running"`` | ``"unknown"``.

        Queued jobs are dequeued without running (a ``cancelled`` result is
        still delivered); running jobs get their cooperative cancel flag
        set and stop at the next step boundary.
        """
        with self._lock:
            if job_id in self._queued and job_id not in self._cancelled_queued:
                self._cancelled_queued.add(job_id)
                return "queued"
            flag = self._running.get(job_id)
            if flag is not None:
                flag.set()
                return "running"
        return "unknown"

    # ------------------------------------------------------------------
    def resize(self, workers: int) -> None:
        """Set the target worker count; grow now, shrink by draining."""
        if workers < 0:
            raise ValueError("workers must be >= 0")
        spawn = 0
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool is shut down")
            self._target = workers
            deficit = workers - (len(self._threads) - self._excess)
            if deficit > 0:
                # pay down shrink debt first, then spawn the remainder
                repay = min(self._excess, deficit)
                self._excess -= repay
                spawn = deficit - repay
                for _ in range(spawn):
                    t = threading.Thread(target=self._worker_loop, daemon=True)
                    self._threads.append(t)
            elif deficit < 0:
                self._excess += -deficit
                self.metrics.inc("farm/pool/shrink_requests", -deficit)
        # start outside the lock: a worker's first action is taking it
        if spawn:
            with self._lock:
                to_start = [t for t in self._threads if not t.is_alive() and not t.ident]
            for t in to_start:
                t.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running (True) or timeout (False)."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._idle:
            while self._queued or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 1.0)
        return True

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the pool.  ``drain=True`` finishes queued + running jobs
        first; ``drain=False`` cancels queued jobs and asks running ones to
        stop at their next step boundary.  Returns False on timeout."""
        ok = True
        if drain:
            ok = self.drain(timeout)
        with self._lock:
            self._shutdown = True
            if not drain:
                for job_id in list(self._queued):
                    self._cancelled_queued.add(job_id)
                for flag in self._running.values():
                    flag.set()
            self._target = 0
            self._excess = len(self._threads)
            threads = list(self._threads)
        for t in threads:
            t.join(timeout=30.0)
            if t.is_alive():  # pragma: no cover - wedged worker
                ok = False
        return ok

    # ------------------------------------------------------------------
    def _deliver(self, result: JobResult) -> None:
        self.metrics.merge(result.metrics)
        self.metrics.inc("farm/jobs")
        self.metrics.inc(
            "farm/jobs_completed" if result.ok else
            ("farm/pool/cancelled" if result.status == "cancelled" else "farm/jobs_failed")
        )
        self._jobs_by_status.inc(status=result.status)
        if self.on_result is not None:
            self.on_result(result)

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            with self._lock:
                if self._excess > 0:
                    self._excess -= 1
                    self._threads.remove(me)
                    self.metrics.inc("farm/pool/drained_exits")
                    return
            try:
                _prio, _seq, spec = self._queue.get(timeout=self.poll_seconds)
            except queue_mod.Empty:
                continue
            with self._lock:
                self._queued.pop(spec.job_id, None)
                queued_at = self._queued_at.pop(spec.job_id, None)
                if spec.job_id in self._cancelled_queued:
                    self._cancelled_queued.discard(spec.job_id)
                    cancelled: JobResult | None = JobResult(
                        job_id=spec.job_id, status="cancelled"
                    )
                else:
                    cancelled = None
                    flag = threading.Event()
                    self._running[spec.job_id] = flag
            if cancelled is not None:
                self._deliver(cancelled)
                with self._idle:
                    self._idle.notify_all()
                continue
            if queued_at is not None:
                self._queue_wait_hist.observe(time.monotonic() - queued_at)
            m = MetricsRegistry()
            run_started = time.perf_counter()
            try:
                result = run_job(
                    spec,
                    self.checkpoint_dir,
                    metrics=m,
                    on_event=self.on_event,
                    heartbeat_seconds=self.heartbeat_seconds,
                    cancel=flag,
                )
            except BaseException as exc:  # harness error: report, keep the worker
                result = JobResult(
                    job_id=spec.job_id,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    metrics=m.to_dict(),
                )
            self._job_run_hist.observe(
                time.perf_counter() - run_started, status=result.status
            )
            with self._idle:
                self._running.pop(spec.job_id, None)
                self._idle.notify_all()
            self._deliver(result)
