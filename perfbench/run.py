"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smart_adaptive --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; on the simulation
workloads their times are in reference seconds, scaled by the host's speed
during the run (``hostspeed``).  ``--trace 1``
measures the workload twice on the same inputs, half the time each: first
untraced, then with spans around each layer's public entry points
(``tracing.instrument``); it reports the per-layer metrics of the traced
half and the traced/untraced cost ratio.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the host and the sample counts.  Spans of a traced run are written
to ``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: BLAS threads per worker thread: MAX_WORKERS serve workers x 1 BLAS thread <= nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the BLAS pin)

from tracing import SpanRecorder, instrument  # noqa: E402
from workloads import FULL, MAX_WORKERS, WORKLOADS, Phase, Sizes  # noqa: E402


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def end_to_end(workload, phase: Phase) -> dict[str, tuple[float, str]]:
    """Times are measured seconds x ``phase.speed.factor`` (1 with no kernel readings)."""
    sims, ran = phase.sims, [s for s in phase.sims if s.ran]
    attempted = len(sims) + workload.setup_checks
    failed = sum(1 for s in sims if s.failures) + len(workload.setup_failures)
    f = phase.speed.factor
    wall = phase.wall * f
    latencies = [s.latency * f for s in sims]
    qlosses, divnorms = zip(*workload.quality(phase))
    return {
        "setup_s": (_median(workload.setup_times), "s"),
        "sim_s_p50": (_median([s.seconds * f for s in ran]), "s"),
        "steps_per_s": (sum(s.steps for s in sims) / wall, "1/s"),
        "step_s_p90": (percentile([t * f for s in ran for t in s.step_seconds], 90), "s"),
        # Eq. 3 quality loss mapped onto (0, 1]: 1 for a PCG-identical result
        "quality_mean": (_mean([1.0 / (1.0 + q) for q in qlosses]), "ratio"),
        "divnorm_mean": (_mean(divnorms), "divnorm"),
        "latency_p50_s": (percentile(latencies, 50), "s"),
        "latency_p90_s": (percentile(latencies, 90), "s"),
        "jobs_per_s": (len(sims) / wall, "1/s"),
        "completed_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _counter(reg, suffix: str) -> float:
    """Sum of the registry counters named ``suffix`` under any scope."""
    return sum(v for k, v in reg.counters.items() if k == suffix or k.endswith("/" + suffix))


def _timer_total(reg, suffix: str) -> tuple[float, int]:
    """(total seconds, count) of the registry timers named ``suffix``."""
    total, count = 0.0, 0
    for k, t in reg.timers.items():
        if k == suffix or k.endswith("/" + suffix):
            total += t.total
            count += t.count
    return total, count


def _hist_mean(reg, name: str) -> float:
    fam = reg.families.get(name)
    stat = fam.stat() if fam is not None else None
    return stat.mean if stat is not None else 0.0


def per_layer(phase: Phase, rec: SpanRecorder, untraced: Phase) -> dict[str, tuple[float, str]]:
    reg, sims = phase.registry, phase.sims
    ran = [s for s in sims if s.ran]
    served = bool(phase.stats)

    def count(name):
        return len(rec.named(name))

    def mean_span(name):
        n = count(name)
        return rec.total(name) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    # --- repro.fluid: per executed step, from the registry the program fills
    step_total, n_steps = _timer_total(reg, "sim/step")
    advect, _ = _timer_total(reg, "sim/advection")
    project, _ = _timer_total(reg, "sim/projection/solve")
    # --- repro.fluid.pcg / kernels / levelset
    pcg_solves, pcg_time = count("pcg.solve"), rec.total("pcg.solve")
    pcg_iters = _counter(reg, "solver/pcg/iterations")
    mic_hit, mic_miss = _counter(reg, "cache/mic0/hit"), _counter(reg, "cache/mic0/miss")
    # --- repro.nn / repro.models
    fwd_time = rec.total("nn.forward")
    nnsolves = count("nnsolver.solve")
    # --- repro.core (Algorithm 2)
    checks = _counter(reg, "adaptive/checks")
    executed = sum(s.executed for s in ran)
    exact_steps = _counter(reg, "projection/by_solver/pcg") + _counter(
        reg, "projection/by_solver/free-surface"
    )
    # --- repro.farm / repro.serve
    queue_wait = _hist_mean(reg, "farm_queue_wait_seconds")
    run_s = _mean([s.seconds for s in ran]) if served else 0.0
    submit_lat = _mean([s.submit_latency for s in ran]) if served else 0.0

    # traced / untraced cost over the items both halves finished, each
    # half in reference seconds
    both = {s.item: s.seconds for s in untraced.sims if s.ran}
    common = [s for s in phase.sims if s.ran and s.item in both]
    overhead = ratio(
        sum(s.seconds for s in common) * phase.speed.factor,
        sum(both[s.item] for s in common) * untraced.speed.factor,
    )

    return {
        "fluid.step_s": (ratio(step_total, n_steps), "s"),
        "fluid.advect_s": (ratio(advect, n_steps), "s"),
        "fluid.project_s": (ratio(project, n_steps), "s"),
        "fluid.other_s": (ratio(step_total - advect - project, n_steps), "s"),
        "pcg.solves": (pcg_solves, "count"),
        "pcg.iters": (pcg_iters, "count"),
        "pcg.iters_per_solve": (ratio(pcg_iters, pcg_solves), "count"),
        "pcg.solve_s": (ratio(pcg_time, pcg_solves), "s"),
        "pcg.iter_us": (ratio(pcg_time, pcg_iters) * 1e6, "us"),
        "pcg.unconverged": (sum(s.unconverged for s in sims), "count"),
        "pcg.factor_builds": (mic_miss, "count"),
        "pcg.cache_hit_ratio": (ratio(mic_hit, mic_hit + mic_miss), "ratio"),
        "freesurface.solve_s": (mean_span("freesurface.solve"), "s"),
        "nn.forwards": (count("nn.forward"), "count"),
        "nn.forward_s": (mean_span("nn.forward"), "s"),
        "nn.flops_computed": (rec.flops, "flop"),
        "nn.gflops_per_s": (ratio(rec.flops, fwd_time) / 1e9, "GFLOP/s"),
        "nn.plan_builds": (count("nn.plan_build"), "count"),
        "nn.plan_build_s": (mean_span("nn.plan_build"), "s"),
        "nnsolver.solve_s": (mean_span("nnsolver.solve"), "s"),
        "nnsolver.overhead_s": (ratio(rec.self_total("nnsolver.solve"), nnsolves), "s"),
        "sched.checks": (checks, "count"),
        "sched.hook_s": (mean_span("sched.hook"), "s"),
        "sched.switches": (sum(s.switches for s in sims), "count"),
        "sched.restarts": (sum(s.restarted for s in sims), "count"),
        "sched.exact_step_share": (ratio(exact_steps, n_steps), "share"),
        "sched.useful_step_ratio": (ratio(sum(s.steps for s in ran), executed), "ratio"),
        "success_share": (_mean([s.success for s in sims]), "share"),
        "farm.queue_wait_s": (queue_wait, "s"),
        "farm.run_s": (run_s, "s"),
        "farm.dispatch_s": (submit_lat - queue_wait - run_s, "s"),
        "farm.checkpoints": (_counter(reg, "farm/checkpoints"), "count"),
        "farm.checkpoint_s": (mean_span("farm.checkpoint"), "s"),
        "farm.busy_share": (
            ratio(sum(s.seconds for s in ran), phase.wall * MAX_WORKERS) if served else 0.0,
            "share",
        ),
        "farm.retries": (sum(s.retries for s in sims), "count"),
        "serve.submit_s": (mean_span("serve.submit"), "s"),
        "serve.cache_get_s": (mean_span("serve.cache_get"), "s"),
        "serve.cache_put_s": (mean_span("serve.cache_put"), "s"),
        "serve.workers_mean": (_mean(phase.workers), "count"),
        "serve.admission_rejects": (_counter(reg, "serve/rejected"), "count"),
        "loadgen.late_p99_s": (percentile(phase.late, 99), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ----------------------------------------------------------------------
def host_stamp() -> dict:
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "serve_workers": MAX_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return the result object (plus a ``report``)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[workload_name]
    span_file = None
    if trace:
        half = seconds / 2.0
        workload = cls(seed, sizes, half, out_dir)
        untraced = workload.measure()
        rec = SpanRecorder()
        with instrument(rec):
            phase = workload.measure()
        metrics = per_layer(phase, rec, untraced)
        span_file = rec.write(out_dir / f"spans-{workload_name}-s{seed}.json")
        phases = [untraced, phase]
    else:
        workload = cls(seed, sizes, seconds, out_dir)
        phase = workload.measure()
        metrics = end_to_end(workload, phase)
        phases = [phase]
    sims = [s for p in phases for s in p.sims]
    failures = [f for s in sims for f in s.failures] + list(workload.setup_failures)
    failed = sum(1 for s in sims if s.failures) + len(workload.setup_failures)
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "host": host_stamp(),
        "counts": {
            "simulations": len(phase.sims),
            "executed": sum(1 for s in phase.sims if s.ran),
            "step_samples": sum(len(s.step_seconds) for s in phase.sims),
            "setup_s": workload.setup_times,
            "quality_samples": len(workload.quality(phase)),
            "kernel_readings": len(phase.speed.readings),
        },
        # measured seconds and the reference seconds per measured second
        "wall_s": phase.wall,
        "host_factor": phase.speed.factor,
        "setup_host_factor": workload.setup_speed.factor,
        "spans_file": os.path.relpath(span_file, ROOT) if span_file else None,
        "failures": failures[:20],
    }
    return {
        "correct": failed == 0,
        "attempted": len(sims) + workload.setup_checks,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    (OUT_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**report, **result}, indent=2)
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
