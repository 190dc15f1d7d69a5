"""The benchmark's workloads.

Each workload has a seeded input generator, a set-up (timed several times
for ``setup_s``) and a measured phase driven through the program's public
API; the program receives only the generated inputs.  See README.md for
why each workload exists.  ``repro`` is imported inside the functions that
use it, so ``run.py`` can start, and refuse to run, in a checkout that
holds the benchmark without the program.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
FRAMEWORK_DIR = HERE / "framework"

#: the five served scenarios: static smoke, inflow, a moving solid that
#: re-keys the solver caches every step, a wake, and a level-set liquid
SERVE_SCENARIOS = ("smoke_plume", "inflow_jet", "moving_cylinder", "karman_street", "dam_break")
#: share of each served grid's jobs on the NN solver
NN_SHARE = 0.3
#: serve worker threads; with BLAS pinned to 1 thread, workers x BLAS <= nproc
MAX_WORKERS = min(2, len(os.sched_getaffinity(0)))
#: reference-kernel readings taken before each closed-loop simulation or set-up
KERNEL_READINGS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (``FULL`` for runs, ``TINY`` for the smoke test)."""

    smart_grid: int = 128
    smart_steps: int = 24
    smart_problems: int = 4
    exact_grid: int = 128
    exact_steps: int = 16
    serve_grids: tuple[int, ...] = (32, 40, 48)
    serve_steps: int = 12
    serve_checkpoint_every: int = 4
    #: burst batch size per measured second (capacity is 7-10 jobs/s)
    burst_rate: float = 7.0
    setup_repeats: int = 7


FULL = Sizes()
TINY = Sizes(
    smart_grid=16,
    smart_steps=8,
    smart_problems=1,
    exact_grid=16,
    exact_steps=3,
    serve_grids=(16,),
    serve_steps=4,
    serve_checkpoint_every=2,
    burst_rate=10.0,
    setup_repeats=2,
)


@dataclass
class Sim:
    """One finished simulation: a Smart-fluidnet run, an exact run or a served job."""

    item: int
    seconds: float  # time to finish it (a served job: the worker's run time)
    latency: float  # request to result (closed loops: == seconds)
    steps: int  # delivered steps
    executed: int  # executed steps, including those discarded by a restart
    step_seconds: list[float]
    divnorm: float
    qloss: float = 0.0
    success: bool = True
    ran: bool = True  # False for a result served from the cache
    failures: list[str] = field(default_factory=list)
    restarted: bool = False
    switches: int = 0
    unconverged: int = 0
    submit_latency: float = 0.0  # served jobs: submit call to result
    retries: int = 0


@dataclass
class Phase:
    """What one measured phase produced.

    Times are measured seconds; ``speed`` holds the reference-kernel
    readings taken through the phase, and ``speed.factor`` maps its
    seconds to reference seconds (see ``hostspeed``).
    """

    wall: float  # measured seconds spent on the workload, kernel readings excluded
    sims: list[Sim]
    registry: object
    speed: HostSpeed
    #: served workloads only: submit lateness, sampled pool sizes, stats()
    late: list[float] = field(default_factory=list)
    workers: list[int] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _time_setup(fn, repeats: int) -> tuple[list[float], HostSpeed, object]:
    """``fn`` run ``repeats`` times: its reference seconds, the host speed, its output."""
    speed, times, out = HostSpeed(), [], None
    for _ in range(repeats):
        speed.sample(KERNEL_READINGS)
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    speed.sample(KERNEL_READINGS)
    return [t * speed.factor for t in times], speed, out


def _records_sim(item, seconds, records, steps, executed, success=True, **kw) -> Sim:
    divs = [r.divnorm for r in records]
    fails = []
    if len(records) != steps:
        fails.append(f"item {item}: {len(records)} of {steps} steps")
    if not all(math.isfinite(d) for d in divs):
        fails.append(f"item {item}: non-finite DivNorm")
    unconverged = sum(
        1 for r in records
        if r.projection.solver_name in ("pcg", "free-surface") and not r.projection.converged
    )
    if unconverged:
        fails.append(f"item {item}: {unconverged} exact solves did not converge")
    return Sim(
        item=item,
        seconds=seconds,
        latency=seconds,
        steps=len(records),
        executed=executed,
        step_seconds=[r.step_seconds for r in records],
        divnorm=float(np.mean(divs)) if divs else float("nan"),
        success=success and not unconverged,
        failures=fails,
        unconverged=unconverged,
        **kw,
    )


def _closed_loop(items, seconds: float, run_one) -> tuple[float, list[Sim], HostSpeed]:
    """Run whole passes over ``items``, as many as fit ``seconds``.

    Whole passes keep every item's share of the sample equal, so the
    medians do not depend on where the clock cut the last pass.  The pass
    count is the first pass's time rounded into ``seconds``.  The host's
    speed is read before every item and after the last; the returned wall
    time leaves those readings out.
    """
    sims: list[Sim] = []
    speed = HostSpeed()
    busy = 0.0
    t0 = time.perf_counter()
    passes = None
    while passes is None or len(sims) < passes * len(items):
        for item in items:
            speed.sample(KERNEL_READINGS)
            t = time.perf_counter()
            sims.append(run_one(len(sims), item))
            busy += time.perf_counter() - t
        if passes is None:
            passes = max(1, round(seconds / (time.perf_counter() - t0)))
    speed.sample(KERNEL_READINGS)
    return busy, sims, speed


def _simulator(scenario: str, grid_size: int, seed: int, solver, metrics=None):
    """A simulator for one scenario instance, set up as a pool worker does:
    the scenario driver may replace the solver and override the config."""
    from repro.fluid import FluidSimulator, SimulationConfig, build_scenario, parse_scenario

    spec = parse_scenario(scenario).with_defaults(grid=grid_size)
    grid, driver = build_scenario(spec, rng=seed)
    overrides = getattr(driver, "config_overrides", {})
    config = SimulationConfig(**overrides) if overrides else None
    return FluidSimulator(
        grid, driver.wrap_solver(solver), driver, config=config, metrics=metrics
    )


def _fresh_registry():
    from repro.metrics import MetricsRegistry, set_metrics

    reg = MetricsRegistry()
    return reg, set_metrics(reg)


class Workload:
    """Common surface: set-up times, quality samples, set-up check failures.

    A workload is built for one measured length (``seconds``); ``measure``
    may run more than once on the same inputs.
    """

    name = ""
    #: set-up times in reference seconds, and the host speed they were read at
    setup_times: list[float]
    setup_speed: HostSpeed
    #: correctness checks made during set-up, and the ones that failed
    setup_checks = 0
    setup_failures: list[str] | tuple = ()

    def quality(self, phase: Phase) -> list[tuple[float, float]]:
        """(Eq. 3 quality loss vs PCG, mean DivNorm) per quality sample.

        The samples are the workload's own runs unless it says otherwise.
        """
        return [(s.qloss, s.divnorm) for s in phase.sims]

    def measure(self) -> Phase:
        raise NotImplementedError


# ----------------------------------------------------------------------
# smart_adaptive
# ----------------------------------------------------------------------
class SmartAdaptive(Workload):
    """``SmartFluidnet.run`` on seeded smoke plumes, quality vs the PCG reference."""

    name = "smart_adaptive"

    def __init__(self, seed: int, sizes: Sizes, seconds: float, out_dir: Path):
        from repro.data import InputProblem, generate_problems
        from repro.io import load_framework

        self.sizes = sizes
        self.seconds = seconds
        # the evaluation split's first problems in a seeded order.  The set
        # is fixed: six problems drawn per seed moved sim_s_p50 by +-12%
        # between seeds, more than one run can average out
        pool = generate_problems(sizes.smart_problems, sizes.smart_grid, split="eval")
        order = np.random.default_rng(seed).permutation(len(pool))
        self.items = [pool[int(k)] for k in order]

        def setup():
            # load the pinned framework and warm its NN path (lazy imports,
            # plan compiles) on a fixed problem at its 32² training grid,
            # where Algorithm 2 switches through the same models as at
            # 128²: what a user pays before the first real run.  A seeded
            # warm-up problem moved setup_s by 1.7x between seeds
            fw = load_framework(FRAMEWORK_DIR)
            fw.run(InputProblem(32, 0), sizes.smart_steps)
            return fw

        self.setup_times, self.setup_speed, self.fw = _time_setup(setup, sizes.setup_repeats)

        # the PCG reference of every problem, for the quality loss
        from repro.core import ReferenceCache

        refs = ReferenceCache(sizes.smart_steps, self.fw.config.simulation)
        self.references = [refs.reference(p).density for p in self.items]

    def measure(self) -> Phase:
        from repro.core import quality_loss
        from repro.metrics import set_metrics

        reg, previous = _fresh_registry()
        steps = self.sizes.smart_steps
        q = self.fw.requirement.q

        def run_one(i, problem) -> Sim:
            k = i % len(self.items)
            run = self.fw.run(problem, steps)
            wasted = sum(run.stats.steps_per_model.values()) if run.restarted else 0
            qloss = quality_loss(self.references[k], run.result.density)
            return _records_sim(
                i, run.total_seconds, run.result.records, steps, steps + wasted,
                qloss=qloss, success=qloss <= q, restarted=run.restarted,
                switches=len(run.stats.switches),
            )

        try:
            wall, sims, speed = _closed_loop(self.items, self.seconds, run_one)
        finally:
            set_metrics(previous)
        return Phase(wall=wall, sims=sims, registry=reg, speed=speed)


# ----------------------------------------------------------------------
# exact_scenarios
# ----------------------------------------------------------------------
class ExactScenarios(Workload):
    """Exact MIC(0)-PCG (or free-surface) runs of every registered scenario."""

    name = "exact_scenarios"

    def __init__(self, seed: int, sizes: Sizes, seconds: float, out_dir: Path):
        from repro.fluid import list_scenarios

        self.sizes = sizes
        self.seconds = seconds
        # every registered scenario at its canonical instance (seed 0), in
        # a seeded order.  Seed-drawn instances moved sim_s_p50 by +-9%
        # between seeds (the median lands on whichever scenario sits mid-mix)
        names = [info.name for info in list_scenarios()]
        self.items = [names[int(k)] for k in np.random.default_rng(seed).permutation(len(names))]

        def setup():
            # materialise every scenario and take one step of each, which
            # builds its solver caches and warms its code path
            for sim in [self._build(name, None) for name in self.items]:
                sim.step()

        self.setup_times, self.setup_speed, _ = _time_setup(setup, sizes.setup_repeats)

    def _build(self, name: str, metrics):
        from repro.fluid import PCGSolver

        return _simulator(name, self.sizes.exact_grid, 0, PCGSolver(metrics=metrics), metrics)

    def measure(self) -> Phase:
        from repro.metrics import set_metrics

        reg, previous = _fresh_registry()
        steps = self.sizes.exact_steps

        def run_one(i, name) -> Sim:
            result = self._build(name, reg).run(steps)
            return _records_sim(i, result.total_seconds, result.records, steps, steps)

        try:
            wall, sims, speed = _closed_loop(self.items, self.seconds, run_one)
        finally:
            set_metrics(previous)
        return Phase(wall=wall, sims=sims, registry=reg, speed=speed)


# ----------------------------------------------------------------------
# serve_burst
# ----------------------------------------------------------------------
def serve_jobs(rng: np.random.Generator, n: int, sizes: Sizes):
    """``n`` distinct small mixed job specs in balanced blocks, seeded.

    Every block holds each served scenario twice at each served grid, with
    ``NN_SHARE`` of each grid's jobs on the NN solver; the seed draws which
    ones, the problem seeds and the order.  Fixed proportions keep the
    medians of one seed comparable to another's.
    """
    from repro.farm import JobSpec

    model_dir = str(FRAMEWORK_DIR / "model0")

    def block():
        out = []
        for grid in sizes.serve_grids:
            cells = [sc for sc in SERVE_SCENARIOS for _ in range(2)]
            n_nn = round(NN_SHARE * len(cells))
            solvers = ["nn"] * n_nn + ["pcg"] * (len(cells) - n_nn)
            rng.shuffle(solvers)
            out += [(sc, grid, solver) for sc, solver in zip(cells, solvers)]
        return [out[int(k)] for k in rng.permutation(len(out))]

    fresh: list = []
    specs = []
    for i in range(n):
        if not fresh:
            fresh = block()
        scenario, grid, solver = fresh.pop()
        specs.append(
            JobSpec(
                job_id=f"job{i}",
                grid_size=grid,
                seed=int(rng.integers(2**31)),
                scenario=scenario,
                steps=sizes.serve_steps,
                solver=solver,
                model_dir=model_dir if solver == "nn" else None,
                checkpoint_every=sizes.serve_checkpoint_every,
            )
        )
    return specs


def quality_suite(sizes: Sizes):
    """The fixed NN job specs behind the serve workload's quality metrics."""
    from repro.farm import JobSpec

    grids = sorted({min(sizes.serve_grids), max(sizes.serve_grids)})
    return [
        JobSpec(
            job_id=f"quality-{scenario}-{grid}", grid_size=grid, seed=0, scenario=scenario,
            steps=sizes.serve_steps, solver="nn", model_dir=str(FRAMEWORK_DIR / "model0"),
        )
        for scenario in SERVE_SCENARIOS
        for grid in grids
    ]


def _served_run(spec, kind: str):
    """``spec`` simulated as a pool worker would, with solver ``kind``."""
    from repro.farm import build_solver
    from repro.metrics import MetricsRegistry

    solver = build_solver(spec, kind, MetricsRegistry())
    return _simulator(spec.scenario, spec.grid_size, spec.seed, solver).run(spec.steps)


def _comparable(result) -> dict:
    d = result.to_dict()
    d.pop("job_id")
    d.pop("cached")
    return d


class ServeBurst(Workload):
    """A closed batch of distinct jobs submitted at once (a parameter sweep).

    Its times stay in measured seconds: its throughput did not follow the
    reference kernel (``hostspeed``), so scaling by the kernel widened its
    spread (see README.md).
    """

    name = "serve_burst"

    def __init__(self, seed: int, sizes: Sizes, seconds: float, out_dir: Path):
        self.sizes = sizes
        self.out_dir = out_dir
        n = max(2, round(sizes.burst_rate * seconds))
        self.items = serve_jobs(np.random.default_rng(seed), n, sizes)
        self.setup_checks = sizes.setup_repeats
        self.setup_failures = []
        self.setup_speed = HostSpeed()  # no readings: measured seconds
        self.setup_times = [
            asyncio.run(self._cold_start()) for _ in range(sizes.setup_repeats)
        ]

        # served results carry no density, and the DivNorm of a mixed job
        # sample swings by decades with the mix, so the quality of what the
        # service answers is measured on a fixed suite: every served
        # scenario at the smallest and largest served grid, the served NN
        # model vs PCG.  The suite does not depend on the seed.
        from repro.core import quality_loss

        self.suite = []
        for spec in quality_suite(sizes):
            exact, nn = _served_run(spec, "pcg"), _served_run(spec, "nn")
            self.suite.append(
                (quality_loss(exact.density, nn.density), float(nn.divnorm_history.mean()))
            )

    def _service(self, root: Path, reg):
        from repro.serve import SimulationService, TenantQuota

        return SimulationService(
            cache_dir=root / "cache",
            checkpoint_dir=root / "ckpt",
            min_workers=1,
            max_workers=MAX_WORKERS,
            default_quota=TenantQuota(rate=None, max_pending=None),
            metrics=reg,
        )

    async def _cold_start(self) -> float:
        """Start a service and take one small job through it (timed), then
        resubmit the job under a new id (untimed): the cache must answer it
        with the filler's result."""
        from repro.farm import JobSpec
        from repro.metrics import MetricsRegistry

        root = Path(tempfile.mkdtemp(dir=self.out_dir))
        warm = JobSpec(job_id="warm", grid_size=16, steps=2)
        try:
            t0 = time.perf_counter()
            svc = self._service(root, MetricsRegistry())
            await svc.start()
            svc.submit(warm)
            filled = await svc.result(warm.job_id)
            elapsed = time.perf_counter() - t0
            svc.submit(replace(warm, job_id="again"))
            served = await svc.result("again")
            await svc.stop()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if not served.cached or _comparable(served) != _comparable(filled):
            self.setup_failures.append("cache-served result differs from its filler")
        return elapsed

    def quality(self, phase: Phase) -> list[tuple[float, float]]:
        return self.suite

    def measure(self) -> Phase:
        from repro.metrics import MetricsRegistry

        root = Path(tempfile.mkdtemp(dir=self.out_dir))
        try:
            return asyncio.run(self._drive(root, MetricsRegistry()))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    async def _drive(self, root: Path, reg) -> Phase:
        svc = self._service(root, reg)
        await svc.start()
        late: list[float] = []
        workers: list[int] = []
        done: dict[int, tuple] = {}
        stop_sampling = asyncio.Event()

        async def sample_workers():
            while not stop_sampling.is_set():
                workers.append(svc.stats()["pool"]["alive"])
                await asyncio.sleep(0.05)

        async def wait(i, spec, submitted):
            result = await svc.result(spec.job_id)
            now = time.perf_counter()
            done[i] = (result, now - t0, now - submitted)

        sampler = asyncio.create_task(sample_workers())
        waiters = []
        t0 = time.perf_counter()
        for i, spec in enumerate(self.items):
            submitted = time.perf_counter()
            late.append(submitted - t0)
            svc.submit(spec)
            waiters.append(asyncio.create_task(wait(i, spec, submitted)))
        for task in waiters:
            await task
        wall = time.perf_counter() - t0
        stop_sampling.set()
        await sampler
        stats = svc.stats()
        await svc.stop()
        return Phase(
            wall=wall,
            sims=[self._sim(i, *done[i]) for i in sorted(done)],
            registry=reg,
            speed=HostSpeed(),  # no readings: measured seconds
            late=late,
            workers=workers,
            stats=stats,
        )

    def _sim(self, i: int, result, latency: float, submit_latency: float) -> Sim:
        spec = self.items[i]
        fails = []
        if result.status != "completed":
            fails.append(f"{spec.job_id}: status {result.status} ({result.error})")
        if result.steps_done != spec.steps or not math.isfinite(result.final_divnorm):
            fails.append(
                f"{spec.job_id}: {result.steps_done} steps, final DivNorm {result.final_divnorm}"
            )
        steps = max(result.steps_done, 1)
        return Sim(
            item=i,
            seconds=result.wall_seconds,
            latency=latency,
            steps=result.steps_done,
            executed=0 if result.cached else result.steps_done,
            step_seconds=[] if result.cached else [result.wall_seconds / steps],
            divnorm=result.cum_divnorm / steps,
            success=result.ok and not result.degraded,
            ran=not result.cached,
            failures=fails,
            submit_latency=submit_latency,
            retries=result.retries,
        )


WORKLOADS = {cls.name: cls for cls in (SmartAdaptive, ExactScenarios, ServeBurst)}
