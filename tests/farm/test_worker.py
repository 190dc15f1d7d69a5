"""run_job: completion, degradation, divergence guard, checkpoint resume."""

import numpy as np
import pytest

from repro.data import InputProblem
from repro.farm import JobSpec, run_job
from repro.farm.checkpoint import checkpoint_step
from repro.fluid import FluidSimulator, PCGSolver
from repro.metrics import NULL_METRICS, MetricsRegistry


def spec(**kwargs) -> JobSpec:
    base = dict(job_id="job", grid_size=16, seed=3, steps=4)
    base.update(kwargs)
    return JobSpec(**base)


class TestRunJob:
    def test_pcg_job_completes(self):
        res = run_job(spec())
        assert res.ok
        assert res.steps_done == 4
        assert res.solver_used == "pcg"
        assert not res.degraded
        assert np.isfinite(res.final_divnorm)
        assert res.metrics["timers"]["sim/step"]["count"] == 4

    def test_result_matches_direct_simulation(self):
        res = run_job(spec())
        grid, source = InputProblem(16, 3).materialize()
        sim = FluidSimulator(grid, PCGSolver(metrics=NULL_METRICS), source,
                             metrics=NULL_METRICS)
        direct = sim.run(4)
        assert res.final_divnorm == direct.records[-1].divnorm
        assert res.cum_divnorm == pytest.approx(sum(r.divnorm for r in direct.records))

    def test_nn_job_completes(self):
        res = run_job(spec(solver="nn", solver_params={"passes": 1}))
        assert res.ok
        assert res.solver_used == "nn"

    def test_injected_raise_degrades_to_pcg(self):
        m = MetricsRegistry()
        res = run_job(spec(solver="nn", fail_at_step=2), metrics=m)
        assert res.ok
        assert res.degraded
        assert res.solver_used == "pcg"
        assert res.steps_done == 4
        fallbacks = m.families.get("farm_pcg_fallbacks_total")
        assert fallbacks.value(solver="nn", scenario="smoke_plume") == 1

    def test_injection_skipped_on_retry_attempts(self):
        res = run_job(spec(fail_at_step=2), attempt=1)
        assert res.ok
        assert not res.degraded

    def test_degraded_restart_matches_pcg_run(self):
        # no checkpoints: degradation restarts from step 0 with exact PCG,
        # so the result equals a clean PCG run of the same problem
        failed = run_job(spec(solver="nn", fail_at_step=2))
        clean = run_job(spec())
        assert failed.ok and failed.degraded
        assert failed.final_divnorm == clean.final_divnorm

    def test_degradation_resumes_from_checkpoint(self, tmp_path):
        m = MetricsRegistry()
        res = run_job(
            spec(solver="nn", fail_at_step=3, checkpoint_every=2),
            checkpoint_dir=tmp_path,
            metrics=m,
        )
        assert res.ok and res.degraded
        assert res.resumed_from == 2  # last checkpoint before the fault
        assert m.counter("farm/resumes") == 1
        ckpt = tmp_path / f"{spec(solver='nn').checkpoint_key}.ckpt.npz"
        assert checkpoint_step(ckpt) >= 2

    def test_divergence_guard_triggers_degradation(self):
        res = run_job(spec(divnorm_limit=0.0))  # any positive DivNorm trips it
        # PCG run trips the guard, degrades to (identical) PCG, trips again -> failed
        assert not res.ok
        assert res.degraded
        assert "SimulationDiverged" in res.error

    def test_crash_mode_without_worker_env_degrades_instead(self):
        # in-process, "crash" downgrades to "raise": the farm must survive
        res = run_job(spec(solver="nn", fail_at_step=1, fail_mode="crash"))
        assert res.ok
        assert res.degraded

    def test_checkpoints_written_at_interval(self, tmp_path):
        m = MetricsRegistry()
        res = run_job(spec(steps=6, checkpoint_every=2), checkpoint_dir=tmp_path, metrics=m)
        assert res.ok
        assert m.counter("farm/checkpoints") == 3
        ckpt = tmp_path / f"{spec(steps=6).checkpoint_key}.ckpt.npz"
        assert checkpoint_step(ckpt) == 6

    def test_unknown_solver_kind_rejected(self):
        from repro.farm import build_solver

        with pytest.raises(ValueError, match="unknown solver kind"):
            build_solver(spec(), "amg", MetricsRegistry())
