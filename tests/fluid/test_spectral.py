"""SpectralSolver: DCT direct solve, eligibility gating and PCG fallback."""

import numpy as np
import pytest

from repro.fluid import MACGrid2D, PCGSolver, SpectralSolver
from repro.fluid.geometry import disc_mask
from repro.fluid.kernels import GeometryKernels, spectral_eligible
from repro.fluid.laplacian import remove_nullspace
from repro.fluid.operators import apply_laplacian
from repro.metrics import MetricsRegistry


def box(n=32):
    return MACGrid2D(n, n).solid.copy()


def obstructed(n=32):
    solid = box(n)
    solid |= disc_mask(solid.shape, n // 2, n // 2, n // 6)
    return solid


def make_rhs(solid, seed=1):
    rng = np.random.default_rng(seed)
    return np.where(~solid, rng.standard_normal(solid.shape), 0.0)


class TestDirectSolve:
    @pytest.mark.parametrize("n", [8, 17, 32, 48])
    def test_residual_is_direct_solve_small(self, n):
        solid = box(n)
        b = make_rhs(solid)
        solver = SpectralSolver(metrics=MetricsRegistry())
        result = solver.solve(b, solid)
        assert result.iterations == 1
        assert result.converged
        # direct solve: residual at machine precision, far below the tol
        bnorm = np.abs(b[~solid]).max()
        assert result.residual_norm <= 1e-10 * bnorm

    def test_matches_tight_pcg(self):
        solid = box(32)
        b = make_rhs(solid, seed=5)
        spec = SpectralSolver(metrics=MetricsRegistry()).solve(b, solid)
        pcg = PCGSolver(tol=1e-10, metrics=MetricsRegistry()).solve(b, solid)
        np.testing.assert_allclose(spec.pressure, pcg.pressure, atol=1e-7)

    def test_pressure_satisfies_poisson_equation(self):
        solid = box(24)
        b = remove_nullspace(make_rhs(solid, seed=9), solid)
        result = SpectralSolver(metrics=MetricsRegistry()).solve(b, solid)
        lap = apply_laplacian(result.pressure, solid)
        np.testing.assert_allclose(lap[~solid], b[~solid], atol=1e-11)

    def test_zero_rhs_short_circuits(self):
        solid = box(16)
        result = SpectralSolver(metrics=MetricsRegistry()).solve(
            np.zeros_like(solid, dtype=np.float64), solid
        )
        assert result.iterations == 0
        assert result.converged
        np.testing.assert_array_equal(result.pressure, 0.0)

    def test_pressure_zero_on_solids_and_zero_mean(self):
        solid = box(20)
        result = SpectralSolver(metrics=MetricsRegistry()).solve(
            make_rhs(solid, seed=3), solid
        )
        np.testing.assert_array_equal(result.pressure[solid], 0.0)
        assert abs(result.pressure[~solid].mean()) < 1e-12


class TestFallback:
    def test_obstructed_geometry_falls_back_to_pcg(self):
        solid = obstructed()
        b = make_rhs(solid)
        metrics = MetricsRegistry()
        solver = SpectralSolver(metrics=metrics)
        result = solver.solve(b, solid)
        expected = PCGSolver(metrics=MetricsRegistry()).solve(b, solid)
        assert metrics.to_dict()["counters"]["solver/spectral/fallbacks"] == 1
        assert result.iterations == expected.iterations
        np.testing.assert_array_equal(result.pressure, expected.pressure)

    def test_custom_fallback_is_used(self):
        class Recorder(PCGSolver):
            calls = 0

            def solve(self, b, solid):
                type(self).calls += 1
                return super().solve(b, solid)

        solid = obstructed()
        solver = SpectralSolver(
            fallback=Recorder(metrics=MetricsRegistry()), metrics=MetricsRegistry()
        )
        solver.solve(make_rhs(solid), solid)
        assert Recorder.calls == 1

    def test_eligible_geometry_does_not_fall_back(self):
        solid = box()
        metrics = MetricsRegistry()
        SpectralSolver(metrics=metrics).solve(make_rhs(solid), solid)
        assert "solver/spectral/fallbacks" not in metrics.counters
        assert metrics.timers["solver/spectral/solve"].count == 1


class TestProtocol:
    def test_name_and_reset(self):
        solver = SpectralSolver(metrics=MetricsRegistry())
        assert solver.name == "spectral"
        solid = box()
        solver.solve(make_rhs(solid), solid)
        assert solver._plan_cache._value is not None
        solver.reset()
        assert solver._plan_cache._value is None
        assert solver._kernels_cache._value is None

    def test_plan_cache_hits_on_repeat_geometry(self):
        solid = box()
        metrics = MetricsRegistry()
        solver = SpectralSolver(metrics=metrics)
        b = make_rhs(solid)
        solver.solve(b, solid)
        solver.solve(b, solid)
        counters = metrics.to_dict()["counters"]
        assert counters["cache/spectral_plan/miss"] == 1
        assert counters["cache/spectral_plan/hit"] == 1

    def test_flops_reported(self):
        solid = box()
        result = SpectralSolver(metrics=MetricsRegistry()).solve(make_rhs(solid), solid)
        kern = GeometryKernels(solid)
        assert result.flops >= 10.0 * kern.n


class TestEligibility:
    def test_box_eligible(self):
        assert spectral_eligible(box())

    def test_interior_solid_not_eligible(self):
        assert not spectral_eligible(obstructed())
