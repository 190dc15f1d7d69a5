"""The ``repro bench`` performance suite.

Runs a fixed set of solver / simulation / inference benchmarks and writes a
machine-readable ``BENCH_<tag>.json``, establishing the repo's performance
trajectory across PRs.  Each benchmark reports wall-clock seconds (min over
repeats, which is robust to scheduler noise) and, where two code paths are
compared, their speedup ratio.

Benchmarks
----------
``pcg_geometry_cache``
    Repeated-geometry PCG: the same Poisson problem solved with the MIC(0)
    factorisation + wavefront schedule rebuilt every call (cold,
    ``reset()`` before each solve) vs. reused from the solver's mask-keyed
    cache (cached).  The cached path does strictly less work, so its
    speedup is the direct payoff of the caching layer.
``pcg_warm_start``
    A short smoke simulation solved with history-independent zero initial
    guesses vs. warm-starting CG from the previous step's pressure;
    reports iteration and solve-time ratios.
``simulation_step``
    End-to-end simulator steps with the exact solver, with the full
    per-phase metrics profile attached.
``nn_inference``
    The compiled fp32 shift-and-GEMM :class:`repro.nn.InferencePlan` vs.
    the legacy layer-by-layer forward on one fixed 128x128 input (the
    paper's baseline-cost workload; grid fixed across scales like
    ``perf_kernels``).  ``fp32_speedup`` over the legacy forward is the
    headline number, ``fp32_max_abs_err`` certifies the plan against the
    legacy forward, and the workspace-reuse counter certifies zero
    steady-state allocations.
``farm_throughput``
    The same 8-job list executed serially in-process vs. on the
    :mod:`repro.farm` process pool; reports jobs/sec and steps/sec for
    both, which is the farm's headline scaling number.
``perf_kernels``
    The geometry-compiled kernel PCG backend vs. the matrix-free reference
    backend on one fixed 128x128 MIC(0) solve (the paper's baseline-cost
    workload), plus the DCT spectral direct solver on the obstacle-free
    box.  The grid is fixed across scales so ``pcg_solve_seconds`` is
    comparable between the committed default-scale baseline and the CI
    smoke run; ``backends_identical`` certifies the bit-for-bit contract.
``tracing_overhead``
    The same simulation (pinned 64x64, 8 steps, interleaved reps) with
    the process tracer disabled (the default) vs. enabled.  The disabled
    path must be a no-op: ``overhead_ratio`` (enabled/disabled wall time)
    is gated in CI at 1.05, holding the tracing instrumentation to <5%
    even when *on*.
``metrics_overhead``
    The same pinned simulation (64x64, 8 steps, interleaved reps) with
    metrics disabled (``NULL_METRICS``, the library default) vs. a live
    :class:`repro.metrics.MetricsRegistry` collecting the flat counters,
    the histogram timers *and* the labeled ``solver_iterations`` family.
    Same interleaved-pair methodology as
    ``tracing_overhead``; ``overhead_ratio_best`` is gated in CI at 1.05,
    holding the full observability layer to <5% even when on.
``scenario_sweep``
    One short end-to-end run per registered scenario (smoke plume, inflow
    jets, moving solids, Kármán street, free-surface liquids).  A liveness
    gate: any crash fails the suite; per-scenario seconds and final
    DivNorm are recorded.
``service_throughput``
    The :mod:`repro.serve` tier end to end: a pinned 6-job fleet submitted
    cold (every job simulated on the autoscaled pool) vs. resubmitted warm
    (every job answered from the content-addressed result cache).  The
    workload is fixed across scales (only the warm repeat count varies);
    ``all_warm_cached`` certifies that no warm job re-simulated, and
    ``cache_speedup`` is the headline cost of *not* having the cache.

Scales
------
``smoke`` is the CI regression gate (seconds, small reps); ``ci`` runs in a
few seconds and is wired into the test suite as a smoke test (marker
``bench``); ``default`` is the standard tracking run; ``paper`` uses
paper-sized grids.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["BenchScale", "SCALES", "run_bench", "write_bench"]

SCHEMA = "repro-bench/v1"
#: tag of the BENCH_<tag>.json this PR emits
DEFAULT_TAG = "pr10"


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes of one benchmark scale."""

    grid: int
    solve_reps: int
    sim_steps: int
    infer_reps: int


SCALES: dict[str, BenchScale] = {
    "smoke": BenchScale(grid=24, solve_reps=2, sim_steps=2, infer_reps=2),
    "ci": BenchScale(grid=32, solve_reps=3, sim_steps=3, infer_reps=4),
    "default": BenchScale(grid=64, solve_reps=5, sim_steps=8, infer_reps=10),
    "paper": BenchScale(grid=128, solve_reps=7, sim_steps=16, infer_reps=20),
}


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _git_provenance() -> dict:
    """Best-effort git revision + dirty flag of the benchmarked checkout.

    Stamped next to ``generated_unix`` so a committed baseline records
    exactly which tree produced it; both fields are ``None`` outside a
    git checkout (sdist installs, stripped CI caches).
    """
    import subprocess

    root = Path(__file__).resolve().parents[2]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout
        return {"git_revision": rev, "git_dirty": bool(status.strip())}
    except Exception:
        return {"git_revision": None, "git_dirty": None}


def _poisson_problem(grid_size: int, seed: int):
    """A reproducible solid mask + compatible Poisson right-hand side."""
    from repro.data import InputProblem

    grid, _ = InputProblem(grid_size, seed).materialize()
    rng = np.random.default_rng(seed + 1)
    b = np.where(grid.fluid, rng.standard_normal(grid.solid.shape), 0.0)
    return grid.solid, b


def _bench_pcg_geometry_cache(scale: BenchScale, seed: int = 0, tol: float = 1e-3) -> dict:
    """Cold (rebuild MIC(0) each solve) vs. cached repeated-geometry PCG.

    Uses a simulation-grade tolerance: per-step pressure solves in a smoke
    run are exactly the repeated-geometry, moderate-accuracy workload the
    cache is built for.
    """
    from repro.fluid import MIC0Preconditioner, PCGSolver
    from repro.metrics import MetricsRegistry

    solid, b = _poisson_problem(scale.grid, seed)
    metrics = MetricsRegistry()
    solver = PCGSolver(tol=tol, metrics=metrics)

    cold_times, cached_times = [], []
    for _ in range(scale.solve_reps):
        solver.reset()
        cold_times.append(_time(lambda: solver.solve(b, solid)))
    solver.reset()
    res = solver.solve(b, solid)  # prime the cache outside the timed region
    for _ in range(scale.solve_reps):
        cached_times.append(_time(lambda: solver.solve(b, solid)))
    setup = min(_time(lambda: MIC0Preconditioner(solid)) for _ in range(scale.solve_reps))

    cold, cached = min(cold_times), min(cached_times)
    return {
        "name": "pcg_geometry_cache",
        "params": {"grid": scale.grid, "reps": scale.solve_reps, "seed": seed, "tol": tol},
        "cold_seconds": cold,
        "cached_seconds": cached,
        "setup_seconds": setup,
        "speedup": cold / cached if cached > 0 else float("inf"),
        "iterations": res.iterations,
        "converged": res.converged,
        "cache_hits": metrics.counter("cache/mic0/hit"),
        "cache_misses": metrics.counter("cache/mic0/miss"),
    }


def _bench_pcg_warm_start(scale: BenchScale, seed: int = 0) -> dict:
    """Zero-initial-guess vs. warm-started PCG across simulation steps."""
    from repro.data import InputProblem
    from repro.fluid import FluidSimulator, PCGSolver
    from repro.metrics import NULL_METRICS

    def run(warm: bool):
        grid, source = InputProblem(scale.grid, seed).materialize()
        solver = PCGSolver(warm_start=warm, metrics=NULL_METRICS)
        sim = FluidSimulator(grid, solver, source, metrics=NULL_METRICS)
        result = sim.run(scale.sim_steps)
        iters = sum(r.projection.iterations for r in result.records)
        return iters, result.solve_seconds, result

    cold_iters, cold_seconds, _ = run(warm=False)
    warm_iters, warm_seconds, _ = run(warm=True)
    return {
        "name": "pcg_warm_start",
        "params": {"grid": scale.grid, "steps": scale.sim_steps, "seed": seed},
        "cold_iterations": cold_iters,
        "warm_iterations": warm_iters,
        "cold_solve_seconds": cold_seconds,
        "warm_solve_seconds": warm_seconds,
        "iteration_ratio": cold_iters / warm_iters if warm_iters else float("inf"),
    }


def _bench_simulation_step(scale: BenchScale, seed: int = 0) -> dict:
    """End-to-end simulator steps with the full metrics profile attached."""
    from repro.data import InputProblem
    from repro.fluid import FluidSimulator, PCGSolver
    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    grid, source = InputProblem(scale.grid, seed).materialize()
    sim = FluidSimulator(
        grid, PCGSolver(metrics=metrics), source, metrics=metrics
    )
    result = sim.run(scale.sim_steps)
    return {
        "name": "simulation_step",
        "params": {"grid": scale.grid, "steps": scale.sim_steps, "seed": seed},
        "total_seconds": result.total_seconds,
        "seconds_per_step": result.total_seconds / scale.sim_steps,
        "solve_seconds": result.solve_seconds,
        "metrics": metrics.to_dict(),
    }


def _bench_nn_inference(scale: BenchScale, seed: int = 0, grid: int = 128) -> dict:
    """The compiled inference plan vs. the legacy forward at a pinned 128x128.

    The grid is *fixed* across scales (only the repeat count varies) so
    ``plan_fp32_seconds`` is directly comparable between the committed
    default-scale baseline and CI smoke runs.  ``fp32_max_abs_err`` is the
    plan's distance from the legacy forward; the workspace counter
    certifies that every timed pass ran entirely inside the pre-allocated
    arena.
    """
    from repro.models import tompson_arch
    from repro.nn import InferencePlan

    reps = max(2, scale.infer_reps)
    net = tompson_arch(8).build(rng=seed)
    x = np.random.default_rng(seed).standard_normal((1, 2, grid, grid))
    plan = InferencePlan(net, (2, grid, grid), batch_capacity=1)

    ref = net.forward(x, training=False)  # warm the legacy workspaces
    fp32_err = float(np.abs(plan.run(x).astype(np.float64) - ref).max())
    reuses_before = plan.workspace_reuses

    legacy = min(_time(lambda: net.forward(x, training=False)) for _ in range(reps))
    fp32 = min(_time(lambda: plan.run(x)) for _ in range(reps))
    return {
        "name": "nn_inference",
        "params": {"grid": grid, "reps": reps, "seed": seed, "batch": 1},
        "legacy_fp64_seconds": legacy,
        "plan_fp32_seconds": fp32,
        "fp32_speedup": legacy / fp32 if fp32 > 0 else float("inf"),
        "fp32_max_abs_err": fp32_err,
        "workspace_reuses": plan.workspace_reuses - reuses_before,
        "arena_bytes_fp32": plan.arena_bytes,
    }


def _bench_farm_throughput(scale: BenchScale, seed: int = 0, n_jobs: int = 8) -> dict:
    """Serial vs. farm execution of one fixed job list.

    Both runs execute the *same* specs (same scenarios, same step budgets),
    so the ratio isolates the execution engine.  On a single-core host the
    process pool mostly pays its orchestration overhead; with real cores the
    farm's throughput scales with worker count.
    """
    import os

    from repro.farm import JobSpec, SimulationFarm
    from repro.metrics import MetricsRegistry

    def jobs() -> list[JobSpec]:
        return [
            JobSpec(
                job_id=f"bench-{i}",
                grid_size=scale.grid,
                seed=seed + i,
                steps=scale.sim_steps,
            )
            for i in range(n_jobs)
        ]

    workers = min(n_jobs, os.cpu_count() or 1)
    serial = SimulationFarm(backend="serial", metrics=MetricsRegistry()).run(jobs())
    farm = SimulationFarm(
        backend="process", workers=workers, metrics=MetricsRegistry()
    ).run(jobs())
    return {
        "name": "farm_throughput",
        "params": {
            "grid": scale.grid,
            "steps": scale.sim_steps,
            "jobs": n_jobs,
            "workers": workers,
            "seed": seed,
        },
        "serial_seconds": serial.wall_seconds,
        "farm_seconds": farm.wall_seconds,
        "serial_jobs_per_second": serial.jobs_per_second,
        "farm_jobs_per_second": farm.jobs_per_second,
        "serial_steps_per_second": serial.steps_per_second,
        "farm_steps_per_second": farm.steps_per_second,
        "serial_completed": len(serial.completed),
        "farm_completed": len(farm.completed),
        "speedup": (
            serial.wall_seconds / farm.wall_seconds
            if farm.wall_seconds > 0
            else float("inf")
        ),
    }


def _bench_perf_kernels(scale: BenchScale, seed: int = 0, grid: int = 128, tol: float = 1e-5) -> dict:
    """Kernel vs. reference PCG backend, plus the spectral direct solve.

    The grid is *fixed* at 128x128 for every scale (only the repeat count
    varies) so the headline ``pcg_solve_seconds`` is directly comparable
    across the committed baseline and CI smoke runs.
    """
    from repro.fluid import MACGrid2D, PCGSolver, SpectralSolver
    from repro.metrics import NULL_METRICS

    reps = max(2, scale.solve_reps)
    solid, b = _poisson_problem(grid, seed)

    timings: dict[str, float] = {}
    results = {}
    for backend in ("kernel", "reference"):
        solver = PCGSolver(tol=tol, metrics=NULL_METRICS, backend=backend)
        results[backend] = solver.solve(b, solid)  # prime the geometry caches
        timings[backend] = min(
            _time(lambda: solver.solve(b, solid)) for _ in range(reps)
        )
    kres, rres = results["kernel"], results["reference"]
    identical = (
        kres.iterations == rres.iterations
        and kres.converged == rres.converged
        and kres.residual_history == rres.residual_history
        and bool(np.array_equal(kres.pressure, rres.pressure))
    )

    # spectral direct solve vs. kernel PCG on the obstacle-free closed box
    box = MACGrid2D(grid, grid).solid.copy()
    rng = np.random.default_rng(seed + 2)
    bb = np.where(~box, rng.standard_normal(box.shape), 0.0)
    spectral = SpectralSolver(tol=tol, metrics=NULL_METRICS)
    box_pcg = PCGSolver(tol=tol, metrics=NULL_METRICS)
    sres = spectral.solve(bb, box)
    box_pcg.solve(bb, box)
    spectral_seconds = min(_time(lambda: spectral.solve(bb, box)) for _ in range(reps))
    box_pcg_seconds = min(_time(lambda: box_pcg.solve(bb, box)) for _ in range(reps))

    return {
        "name": "perf_kernels",
        "params": {"grid": grid, "reps": reps, "seed": seed, "tol": tol},
        "pcg_solve_seconds": timings["kernel"],
        "reference_solve_seconds": timings["reference"],
        "speedup": (
            timings["reference"] / timings["kernel"]
            if timings["kernel"] > 0
            else float("inf")
        ),
        "iterations": kres.iterations,
        "converged": kres.converged,
        "backends_identical": identical,
        "spectral_solve_seconds": spectral_seconds,
        "spectral_box_pcg_seconds": box_pcg_seconds,
        "spectral_speedup": (
            box_pcg_seconds / spectral_seconds
            if spectral_seconds > 0
            else float("inf")
        ),
        "spectral_converged": sres.converged,
        "spectral_iterations": sres.iterations,
    }


def _bench_tracing_overhead(
    scale: BenchScale, seed: int = 0, grid: int = 64, steps: int = 8
) -> dict:
    """Simulation wall time with tracing disabled vs. enabled.

    The disabled run uses the process default tracer (disabled, the
    library-wide steady state), so ``disabled_seconds`` measures the
    no-op cost left in the hot paths; the enabled run installs a live
    :class:`repro.trace.Tracer` recording every span and event.  The two
    variants are *interleaved* rep-by-rep (disabled, enabled, disabled,
    ...) and the reported ratio is the *median of the per-rep ratios*:
    each enabled rep is compared only against the disabled rep that ran
    immediately before it (same ambient load), and the median discards
    the pairs a bursty background process happened to land on.  Slow
    drift and isolated spikes both cancel; a real, systematic overhead
    shows up in every pair and survives the median.

    ``overhead_ratio_best`` is the *minimum* pairwise ratio — the pair
    least disturbed by background load.  CI gates on it: a systematic
    overhead inflates every pair including the cleanest one, while an
    ambient-noise spike only inflates the pairs it lands on, so the
    best pair stays a stable one-sided detector on busy runners.

    The workload is *pinned* at a 64x64 grid and 8 steps for every scale
    (like ``nn_inference``/``perf_kernels``): the ratio gates a ~0.1 s
    run whose timing noise sits well under the 5% CI threshold, which a
    smoke-sized millisecond run could never achieve.
    """
    from repro.data import InputProblem
    from repro.fluid import FluidSimulator, PCGSolver
    from repro.metrics import NULL_METRICS
    from repro.trace import Tracer, set_tracer

    reps = max(5, scale.solve_reps)

    def run_sim() -> float:
        g, source = InputProblem(grid, seed).materialize()
        sim = FluidSimulator(
            g, PCGSolver(metrics=NULL_METRICS), source, metrics=NULL_METRICS
        )
        return _time(lambda: sim.run(steps))

    tracer = Tracer(enabled=True)
    run_sim()  # warm caches (BLAS threads, allocator) outside the timing
    disabled_times, enabled_times = [], []
    for _ in range(reps):
        disabled_times.append(run_sim())
        previous = set_tracer(tracer)
        try:
            enabled_times.append(run_sim())
        finally:
            set_tracer(previous)
    pair_ratios = sorted(
        e / d if d > 0 else float("inf")
        for d, e in zip(disabled_times, enabled_times)
    )
    mid = len(pair_ratios) // 2
    if len(pair_ratios) % 2:
        ratio = pair_ratios[mid]
    else:
        ratio = 0.5 * (pair_ratios[mid - 1] + pair_ratios[mid])
    spans = len(tracer.spans())
    return {
        "name": "tracing_overhead",
        "params": {"grid": grid, "steps": steps, "reps": reps, "seed": seed},
        "disabled_seconds": min(disabled_times),
        "enabled_seconds": min(enabled_times),
        "overhead_ratio": ratio,
        "overhead_ratio_best": pair_ratios[0],
        "spans_recorded": spans,
        "events_recorded": len(tracer.events()),
    }


def _bench_metrics_overhead(
    scale: BenchScale, seed: int = 0, grid: int = 64, steps: int = 8
) -> dict:
    """Simulation wall time with metrics disabled vs. fully enabled.

    The disabled run uses :data:`repro.metrics.NULL_METRICS` (the no-op
    registry, the library-wide steady state), so ``disabled_seconds``
    measures the dead-branch cost left in the hot paths; the enabled run
    passes a live :class:`repro.metrics.MetricsRegistry`, which collects
    the flat counters, the histogram timers *and* the labeled
    ``solver_iterations{solver}`` family the Prometheus exposition serves.  Methodology is identical to
    ``tracing_overhead`` — interleaved disabled/enabled reps, the median
    of per-pair ratios as the headline, and ``overhead_ratio_best`` (the
    minimum pairwise ratio, the pair least disturbed by ambient load) as
    the CI gate at 1.05.  The workload is *pinned* at 64x64 and 8 steps
    for every scale so the gated run stays ~0.1 s, keeping timing noise
    well under the 5% threshold.
    """
    from repro.data import InputProblem
    from repro.fluid import FluidSimulator, PCGSolver
    from repro.metrics import NULL_METRICS, MetricsRegistry

    reps = max(5, scale.solve_reps)

    def run_sim(metrics) -> float:
        g, source = InputProblem(grid, seed).materialize()
        sim = FluidSimulator(
            g, PCGSolver(metrics=metrics), source, metrics=metrics
        )
        return _time(lambda: sim.run(steps))

    run_sim(NULL_METRICS)  # warm caches (BLAS threads, allocator) outside the timing
    enabled = MetricsRegistry()
    disabled_times, enabled_times = [], []
    for _ in range(reps):
        disabled_times.append(run_sim(NULL_METRICS))
        enabled_times.append(run_sim(enabled))
    pair_ratios = sorted(
        e / d if d > 0 else float("inf")
        for d, e in zip(disabled_times, enabled_times)
    )
    mid = len(pair_ratios) // 2
    if len(pair_ratios) % 2:
        ratio = pair_ratios[mid]
    else:
        ratio = 0.5 * (pair_ratios[mid - 1] + pair_ratios[mid])
    return {
        "name": "metrics_overhead",
        "params": {"grid": grid, "steps": steps, "reps": reps, "seed": seed},
        "disabled_seconds": min(disabled_times),
        "enabled_seconds": min(enabled_times),
        "overhead_ratio": ratio,
        "overhead_ratio_best": pair_ratios[0],
        "counters_recorded": len(enabled.counters),
        "families_recorded": len(enabled.families),
    }


def _bench_scenario_sweep(scale: BenchScale, seed: int = 0, scenario: str | None = None) -> dict:
    """One short end-to-end run per registered scenario.

    A liveness gate for the scenario universe rather than a timing race:
    every registered workload (smoke plume, jets, moving solids, free
    surfaces) must build and step without crashing — any exception
    propagates and fails the suite.  Per-scenario wall seconds and the
    final DivNorm are still recorded so gross regressions show up in the
    report.  ``scenario`` restricts the sweep to one registry entry.
    """
    from repro.fluid import (
        FluidSimulator,
        PCGSolver,
        SimulationConfig,
        build_scenario,
        list_scenarios,
        parse_scenario,
    )
    from repro.metrics import NULL_METRICS

    grid = min(scale.grid, 32)  # liveness, not throughput: keep every entry short
    steps = max(2, scale.sim_steps // 2)
    if scenario is not None:
        specs = [parse_scenario(scenario)]
    else:
        specs = [parse_scenario(info.name) for info in list_scenarios()]
    runs = []
    for sspec in specs:
        sspec = sspec.with_defaults(grid=grid)
        g, driver = build_scenario(sspec, rng=seed)
        solver = driver.wrap_solver(PCGSolver(metrics=NULL_METRICS))
        overrides = getattr(driver, "config_overrides", {})
        config = SimulationConfig(**overrides) if overrides else None
        sim = FluidSimulator(g, solver, driver, config=config, metrics=NULL_METRICS)
        seconds = _time(lambda: sim.run(steps))
        divnorms = sim.full_divnorm_history
        final = float(divnorms[-1]) if divnorms.size else float("nan")
        if not np.isfinite(final):
            raise RuntimeError(f"scenario {sspec.to_string()!r} diverged: DivNorm {final}")
        runs.append(
            {
                "scenario": sspec.to_string(),
                "seconds": seconds,
                "final_divnorm": final,
            }
        )
    return {
        "name": "scenario_sweep",
        "params": {"grid": grid, "steps": steps, "seed": seed},
        "scenarios": runs,
        "total_seconds": sum(r["seconds"] for r in runs),
    }


def _bench_service_throughput(
    scale: BenchScale, seed: int = 0, grid: int = 32, steps: int = 4, n_jobs: int = 6
) -> dict:
    """Cold (simulated) vs. warm (cache-served) submissions to the service.

    The workload is *pinned* across scales — a 6-job, 32x32, 4-step fleet —
    so the cold/warm numbers are comparable between the committed baseline
    and CI smoke runs; only the warm repeat count follows the scale.  Cold
    runs once against an empty cache (each further rep would itself be a
    cache hit); the warm path resubmits the same semantic specs under fresh
    job ids ``reps`` times and takes the min.
    """
    import asyncio
    import os
    import tempfile

    from repro.farm import JobSpec
    from repro.metrics import MetricsRegistry
    from repro.serve import SimulationService, TenantQuota

    reps = max(2, scale.solve_reps)
    workers = min(4, os.cpu_count() or 1)

    def specs(tag: str) -> list[JobSpec]:
        return [
            JobSpec(job_id=f"{tag}-{i}", grid_size=grid, seed=seed + i, steps=steps)
            for i in range(n_jobs)
        ]

    async def run():
        with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
            service = SimulationService(
                cache_dir=os.path.join(tmp, "cache"),
                checkpoint_dir=os.path.join(tmp, "ckpt"),
                min_workers=1,
                max_workers=workers,
                default_quota=TenantQuota(rate=None, burst=64, max_pending=None),
                metrics=MetricsRegistry(),
            )
            await service.start()

            async def submit_and_wait(tag: str) -> tuple[float, list]:
                t0 = time.perf_counter()
                batch = specs(tag)
                for s in batch:
                    service.submit(s, tenant="bench")
                results = await asyncio.gather(
                    *(service.result(s.job_id, timeout=300.0) for s in batch)
                )
                return time.perf_counter() - t0, results

            cold_seconds, cold_results = await submit_and_wait("cold")
            warm_times, all_cached = [], True
            for r in range(reps):
                seconds, results = await submit_and_wait(f"warm{r}")
                warm_times.append(seconds)
                all_cached = all_cached and all(res.cached for res in results)
            stats = service.stats()
            await service.stop(drain=True, timeout=60.0)
            return cold_seconds, cold_results, min(warm_times), all_cached, stats

    cold, cold_results, warm, all_cached, stats = asyncio.run(run())
    return {
        "name": "service_throughput",
        "params": {
            "grid": grid,
            "steps": steps,
            "jobs": n_jobs,
            "workers": workers,
            "warm_reps": reps,
            "seed": seed,
        },
        "cold_seconds": cold,
        "warm_seconds": warm,
        "cold_jobs_per_second": n_jobs / cold if cold > 0 else float("inf"),
        "warm_jobs_per_second": n_jobs / warm if warm > 0 else float("inf"),
        "cache_speedup": cold / warm if warm > 0 else float("inf"),
        "cold_completed": sum(1 for r in cold_results if r.ok),
        "all_warm_cached": all_cached,
        "cache_stats": stats["cache"],
    }


def run_bench(scale: str = "default", seed: int = 0, scenario: str | None = None) -> dict:
    """Run the whole suite at one scale and return the report dict.

    ``scenario`` narrows the ``scenario_sweep`` benchmark to a single
    registry entry; every other benchmark is unaffected.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    s = SCALES[scale]
    benchmarks = [
        _bench_pcg_geometry_cache(s, seed),
        _bench_pcg_warm_start(s, seed),
        _bench_simulation_step(s, seed),
        _bench_nn_inference(s, seed),
        _bench_farm_throughput(s, seed),
        _bench_perf_kernels(s, seed),
        _bench_tracing_overhead(s, seed),
        _bench_metrics_overhead(s, seed),
        _bench_scenario_sweep(s, seed, scenario),
        _bench_service_throughput(s, seed),
    ]
    return {
        "schema": SCHEMA,
        "tag": DEFAULT_TAG,
        "scale": scale,
        "generated_unix": time.time(),
        **_git_provenance(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": benchmarks,
    }


def write_bench(report: dict, output: str | Path) -> Path:
    """Write a benchmark report as JSON; returns the path written."""
    path = Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
