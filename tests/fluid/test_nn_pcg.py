"""Tests for the NN-preconditioned flexible CG solver (DCDM-style)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid import (
    FluidSimulator,
    GeometryKernels,
    NNPCGSolver,
    PCGSolver,
    SimulationConfig,
    apply_laplacian,
    build_scenario,
    list_scenarios,
    make_smoke_plume,
    parse_scenario,
)
from repro.fluid.laplacian import remove_nullspace
from repro.metrics import MetricsRegistry
from repro.models import tompson_arch


def plume_solid(n: int, seed: int) -> np.ndarray:
    g, _ = make_smoke_plume(n, n, rng=seed)
    return g.solid


def compatible_rhs(solid: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fluid = ~solid
    b = np.where(fluid, rng.standard_normal(solid.shape), 0.0)
    return np.where(fluid, b - b[fluid].mean(), 0.0)


@pytest.fixture(scope="module")
def net():
    """One untrained direction network shared across the module.

    Untrained weights make the *safeguard* load-bearing: every test below
    must pass regardless of direction quality, which is exactly the
    convergence contract.
    """
    return tompson_arch(4).build(rng=0)


def residual_inf(p: np.ndarray, b: np.ndarray, solid: np.ndarray) -> float:
    bz = remove_nullspace(b, solid)
    r = np.where(~solid, bz - apply_laplacian(p, solid), 0.0)
    return float(np.abs(r).max())


class _CaptureSolver:
    """Delegate to an inner solver, recording every (b, solid) it sees."""

    def __init__(self, inner):
        self.inner = inner
        self.samples: list[tuple[np.ndarray, np.ndarray]] = []
        self.name = inner.name

    def solve(self, b, solid):
        self.samples.append((b.copy(), solid.copy()))
        return self.inner.solve(b, solid)

    def reset(self):
        self.inner.reset()


class TestConvergence:
    def test_converges_to_pcg_tolerance(self, net):
        solid = plume_solid(32, 0)
        b = compatible_rhs(solid, 1)
        solver = NNPCGSolver(net, tol=1e-5, metrics=MetricsRegistry())
        res = solver.solve(b, solid)
        assert res.converged
        bnorm = float(np.abs(remove_nullspace(b, solid)).max())
        assert residual_inf(res.pressure, b, solid) <= 1e-5 * bnorm

    def test_pressure_is_nullspace_free(self, net):
        solid = plume_solid(24, 2)
        b = compatible_rhs(solid, 3)
        res = NNPCGSolver(net, metrics=MetricsRegistry()).solve(b, solid)
        fluid = ~solid
        assert abs(res.pressure[fluid].mean()) < 1e-12
        assert np.all(res.pressure[solid] == 0.0)

    def test_zero_rhs_short_circuits(self, net):
        solid = plume_solid(16, 0)
        res = NNPCGSolver(net, metrics=MetricsRegistry()).solve(
            np.zeros_like(solid, dtype=np.float64), solid
        )
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.pressure == 0.0)

    def test_fp64_precision_also_converges(self, net):
        solid = plume_solid(24, 4)
        b = compatible_rhs(solid, 5)
        solver = NNPCGSolver(net, precision="fp64", metrics=MetricsRegistry())
        res = solver.solve(b, solid)
        assert res.converged

    def test_scenario_equivalence(self, net):
        """NN-PCG hits PCG's tolerance on every registered scenario's solves.

        For each scenario registry entry, run a short simulation with the
        reference PCG solver (wrapped by the scenario driver, like a real
        job) while capturing the Poisson problems it is asked to solve,
        then re-solve the last non-trivial one with NN-PCG and check the
        residual against the same relative tolerance.  Free-surface
        drivers replace the configured solver outright (their pressure
        solve is a different, liquid-only system), so they legitimately
        capture nothing and are skipped — but at least four scenarios must
        exercise the solver for the sweep to count.
        """
        tol = 1e-5
        covered = 0
        for info in list_scenarios():
            sspec = parse_scenario(info.name).with_defaults(grid=32)
            grid, driver = build_scenario(sspec, rng=0)
            cap = _CaptureSolver(PCGSolver(tol=tol, metrics=MetricsRegistry()))
            wrapped = driver.wrap_solver(cap)
            overrides = getattr(driver, "config_overrides", {})
            config = SimulationConfig(**overrides) if overrides else None
            sim = FluidSimulator(grid, wrapped, driver, config=config,
                                 metrics=MetricsRegistry())
            sim.run(3)
            nontrivial = [
                (b, s) for b, s in cap.samples if float(np.abs(b).max()) > 1e-12
            ]
            if not nontrivial:
                continue  # driver replaced the solver (free surface)
            b, solid = nontrivial[-1]
            solver = NNPCGSolver(net, tol=tol, metrics=MetricsRegistry())
            res = solver.solve(b, solid)
            bnorm = float(np.abs(remove_nullspace(b, solid)).max())
            assert res.converged, f"nn_pcg failed to converge on {info.name}"
            assert residual_inf(res.pressure, b, solid) <= tol * bnorm, info.name
            covered += 1
        assert covered >= 4, f"only {covered} scenarios exercised the solver"


class TestDeterminism:
    def test_repeated_solves_are_bitwise_identical(self, net):
        solid = plume_solid(32, 7)
        b = compatible_rhs(solid, 8)
        solver = NNPCGSolver(net, metrics=MetricsRegistry())
        first = solver.solve(b, solid)
        second = solver.solve(b, solid)  # warm caches
        solver.reset()
        third = solver.solve(b, solid)  # cold caches again
        for other in (second, third):
            assert np.array_equal(first.pressure, other.pressure)
            assert first.iterations == other.iterations
            assert first.residual_history == other.residual_history

    def test_fresh_solver_reproduces_the_same_result(self, net):
        solid = plume_solid(24, 9)
        b = compatible_rhs(solid, 10)
        a = NNPCGSolver(net, metrics=MetricsRegistry()).solve(b, solid)
        c = NNPCGSolver(net, metrics=MetricsRegistry()).solve(b, solid)
        assert np.array_equal(a.pressure, c.pressure)
        assert a.residual_history == c.residual_history


class TestSafeguard:
    def test_zero_network_falls_back_to_mic_directions(self):
        """A degenerate (all-zero) network triggers the safeguard every
        iteration, and the safeguarded solver still converges like PCG."""
        zero_net = tompson_arch(4).build(rng=0)
        for p in zero_net.parameters():
            p.value[...] = 0.0
        solid = plume_solid(32, 11)
        b = compatible_rhs(solid, 12)
        metrics = MetricsRegistry()
        solver = NNPCGSolver(zero_net, tol=1e-5, metrics=metrics)
        res = solver.solve(b, solid)
        assert res.converged
        assert metrics.counter("solver/nn_pcg/nn_steps") == 0
        assert metrics.counter("solver/nn_pcg/safeguard_steps") == res.iterations

        ref = PCGSolver(tol=1e-5, metrics=MetricsRegistry()).solve(b, solid)
        assert res.iterations == ref.iterations

    def test_untrained_network_cannot_break_convergence(self, net):
        solid = plume_solid(24, 13)
        b = compatible_rhs(solid, 14)
        metrics = MetricsRegistry()
        res = NNPCGSolver(net, tol=1e-5, metrics=metrics).solve(b, solid)
        assert res.converged
        total = metrics.counter("solver/nn_pcg/nn_steps") + metrics.counter(
            "solver/nn_pcg/safeguard_steps"
        )
        assert total == res.iterations


class TestAConjugacy:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_orthogonalized_directions_stay_a_conjugate(self, seed):
        """MGS output is A-conjugate to every window member (fp32 tolerance)."""
        solid = plume_solid(16, 0)
        kern = GeometryKernels(solid)
        rng = np.random.default_rng(seed)
        window: list[tuple[np.ndarray, np.ndarray, float]] = []
        for _ in range(5):
            q = NNPCGSolver._orthogonalize(rng.standard_normal(kern.n), window)
            Aq = kern.matvec(q)
            qAq = float(q @ Aq)
            for s, As, sAs in window:
                scale = np.sqrt(max(qAq, 0.0) * sAs)
                assert abs(float(q @ As)) <= 1e-6 * max(scale, 1e-30)
            window.append((q, Aq, qAq))
            if len(window) > 2:
                window.pop(0)


class TestPlanPrewarm:
    def test_ensure_capacity_builds_every_pyramid_level(self, net):
        metrics = MetricsRegistry()
        solver = NNPCGSolver(net, metrics=metrics)
        solver.ensure_capacity((32, 32))
        # 32 -> 16 -> 8 (min_level=8 stops further coarsening)
        assert metrics.timers["solver/nn_pcg/plan_build"].count == 3

        solid = plume_solid(32, 0)
        solver.solve(compatible_rhs(solid, 1), solid)
        assert metrics.timers["solver/nn_pcg/plan_build"].count == 3  # all pre-warmed

    def test_reset_drops_plans(self, net):
        metrics = MetricsRegistry()
        solver = NNPCGSolver(net, metrics=metrics)
        solver.ensure_capacity((16, 16))
        built = metrics.timers["solver/nn_pcg/plan_build"].count
        solver.reset()
        solver.ensure_capacity((16, 16))
        assert metrics.timers["solver/nn_pcg/plan_build"].count == 2 * built


class TestValidationAndAccounting:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": -1},
            {"cycles": 0},
            {"min_level": 2},
            {"precision": "fp16"},
        ],
    )
    def test_invalid_parameters_rejected(self, net, kwargs):
        with pytest.raises(ValueError):
            NNPCGSolver(net, **kwargs)

    def test_solve_counters(self, net):
        solid = plume_solid(24, 15)
        b = compatible_rhs(solid, 16)
        metrics = MetricsRegistry()
        res = NNPCGSolver(net, metrics=metrics).solve(b, solid)
        assert metrics.timers["solver/nn_pcg/solve"].count == 1
        assert metrics.counter("solver/nn_pcg/iterations") == res.iterations

    def test_resource_usage_positive(self, net):
        usage = NNPCGSolver(net).resource_usage((32, 32))
        assert usage.flops > 0
        assert usage.params > 0

    def test_simulation_runs_end_to_end(self, net):
        grid, source = make_smoke_plume(24, 24, rng=0)
        solver = NNPCGSolver(net, metrics=MetricsRegistry())
        sim = FluidSimulator(grid, solver, source, metrics=MetricsRegistry())
        result = sim.run(3)
        assert len(result.records) == 3
        assert all(r.projection.converged for r in result.records)
