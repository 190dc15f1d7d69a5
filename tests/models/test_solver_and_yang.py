"""Tests for the NN solver adapter and the Yang baseline."""

import numpy as np
import pytest

from repro.fluid import MACGrid2D, PCGSolver, apply_laplacian, make_smoke_plume
from repro.models import NNProjectionSolver, YangModel, tompson_arch
from repro.nn import Network

from ..nn.gradcheck import numerical_grad

RNG = np.random.default_rng(0)


class PerfectModel:
    """Oracle 'network' that solves the Poisson problem exactly."""

    def __init__(self):
        self.pcg = PCGSolver(tol=1e-11)

    def forward(self, x, training=False):
        b = x[0, 0]
        solid = x[0, 1] > 0.5
        return self.pcg.solve(b, solid).pressure[None, None]

    def flops(self, shape):
        return 0.0

    def param_count(self):
        return 0


def compatible_rhs(solid, seed=0):
    rng = np.random.default_rng(seed)
    fluid = ~solid
    b = np.where(fluid, rng.standard_normal(solid.shape), 0.0)
    return np.where(fluid, b - b[fluid].mean(), 0.0)


class TestNNProjectionSolver:
    def test_invalid_passes(self):
        with pytest.raises(ValueError):
            NNProjectionSolver(PerfectModel(), passes=0)

    def test_oracle_model_reproduces_pcg(self):
        g, _ = make_smoke_plume(16, 16, rng=1)
        b = compatible_rhs(g.solid, 2)
        exact = PCGSolver(tol=1e-11).solve(b, g.solid).pressure
        approx = NNProjectionSolver(PerfectModel(), passes=1).solve(b, g.solid).pressure
        np.testing.assert_allclose(approx, exact, atol=1e-5)

    def test_zero_rhs_short_circuits(self):
        g = MACGrid2D(16, 16)
        res = NNProjectionSolver(PerfectModel()).solve(np.zeros(g.shape), g.solid)
        assert res.converged
        np.testing.assert_array_equal(res.pressure, 0.0)

    def test_scale_equivariance(self):
        net = tompson_arch(4).build(rng=0)
        g, _ = make_smoke_plume(16, 16, rng=3)
        b = compatible_rhs(g.solid, 4)
        solver = NNProjectionSolver(net, passes=1)
        p1 = solver.solve(b, g.solid).pressure
        # a power-of-two scale is exact in floating point, so the rescaled
        # solve must reproduce the pressure bit for bit
        p2 = solver.solve(1024.0 * b, g.solid).pressure
        np.testing.assert_array_equal(p2, 1024.0 * p1)

    def test_more_passes_reduce_residual(self):
        net = tompson_arch(4).build(rng=0)
        g, _ = make_smoke_plume(16, 16, rng=5)
        b = compatible_rhs(g.solid, 6)
        # an untrained network may not reduce the residual, so train-free
        # check uses the *oracle*; for the real net check monotone trend on
        # residual magnitude produced by the defect-correction structure
        r1 = NNProjectionSolver(PerfectModel(), passes=1).solve(b, g.solid).residual_norm
        r2 = NNProjectionSolver(PerfectModel(), passes=2).solve(b, g.solid).residual_norm
        assert r2 <= r1 + 1e-12

    def test_pressure_mean_zero_and_solid_zero(self):
        net = tompson_arch(4).build(rng=1)
        g, _ = make_smoke_plume(16, 16, rng=7)
        b = compatible_rhs(g.solid, 8)
        p = NNProjectionSolver(net).solve(b, g.solid).pressure
        assert p[g.fluid].mean() == pytest.approx(0.0, abs=1e-12)
        assert (p[g.solid] == 0).all()

    def test_flops_scale_with_passes(self):
        net = tompson_arch(4).build(rng=0)
        g = MACGrid2D(16, 16)
        b = compatible_rhs(g.solid, 9)
        f1 = NNProjectionSolver(net, passes=1).solve(b, g.solid).flops
        f3 = NNProjectionSolver(net, passes=3).solve(b, g.solid).flops
        assert f3 == pytest.approx(3 * f1)

    def test_resource_usage(self):
        net = tompson_arch(4).build(rng=0)
        solver = NNProjectionSolver(net, passes=2)
        usage = solver.resource_usage((16, 16))
        assert usage.flops > 0 and usage.params == net.param_count()


class TestPrecision:
    """The fp32 plan: close to the legacy forward, all-float64 out."""

    def test_fp32_pressure_is_float64_at_the_boundary(self):
        g, _ = make_smoke_plume(16, 16, rng=3)
        b = compatible_rhs(g.solid, 4)
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0))
        p = solver.solve(b, g.solid).pressure
        assert p.dtype == np.float64

    def test_fp32_divergence_reduction_parity(self):
        """fp32 inference changes the residual only at float32 noise level."""
        g, _ = make_smoke_plume(20, 20, rng=9)
        b = compatible_rhs(g.solid, 10)
        planned = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=2)
        legacy = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=2)
        legacy._plan_unsupported = True  # force the layer-by-layer forward
        r32 = planned.solve(b, g.solid)
        r64 = legacy.solve(b, g.solid)
        assert planned._plan is not None  # the plan actually ran
        np.testing.assert_allclose(r32.pressure, r64.pressure, atol=1e-4)
        assert r32.residual_norm == pytest.approx(r64.residual_norm, rel=1e-3, abs=1e-4)

    def test_plan_compiled_once_and_reused(self):
        from repro.metrics import MetricsRegistry

        m = MetricsRegistry()
        g, _ = make_smoke_plume(16, 16, rng=5)
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), metrics=m)
        for seed in range(3):
            solver.solve(compatible_rhs(g.solid, seed), g.solid)
        assert m.timers["solver/nn/plan_build"].count == 1
        assert solver._plan.workspace_reuses == 3 * solver.passes

    def test_unplannable_model_falls_back_to_legacy_forward(self):
        from repro.metrics import MetricsRegistry

        m = MetricsRegistry()
        g, _ = make_smoke_plume(16, 16, rng=1)
        b = compatible_rhs(g.solid, 2)
        solver = NNProjectionSolver(PerfectModel(), passes=1, metrics=m)
        res = solver.solve(b, g.solid)
        assert res.converged
        assert m.counter("solver/nn/plan_unsupported") == 1
        assert solver._plan is None

    def test_ensure_capacity_prebuilds_plan_for_batch(self):
        from repro.metrics import MetricsRegistry

        m = MetricsRegistry()
        g, _ = make_smoke_plume(16, 16, rng=5)
        solver = NNProjectionSolver(tompson_arch(4).build(rng=0), metrics=m)
        solver.ensure_capacity(g.shape, 4)
        assert solver._plan is not None and solver._plan.capacity == 4
        # smaller batches ride the same plan, no rebuild
        solver.solve_many(
            [compatible_rhs(g.solid, s) for s in range(2)], [g.solid] * 2
        )
        assert m.timers["solver/nn/plan_build"].count == 1


class TestYangModel:
    def test_output_shape(self):
        m = YangModel(rng=0)
        out = m.forward(RNG.standard_normal((3, 2, 8, 8)))
        assert out.shape == (3, 1, 8, 8)

    def test_even_patch_rejected(self):
        with pytest.raises(ValueError):
            YangModel(patch=4)

    def test_wrong_channels_rejected(self):
        with pytest.raises(ValueError):
            YangModel(rng=0).forward(np.zeros((1, 3, 8, 8)))

    def test_locality(self):
        """A far-away input perturbation must not change a cell's output."""
        m = YangModel(patch=3, rng=0)
        x = RNG.standard_normal((1, 2, 12, 12))
        y0 = m.forward(x)[0, 0, 2, 2]
        x2 = x.copy()
        x2[0, 0, 10, 10] += 5.0
        y1 = m.forward(x2)[0, 0, 2, 2]
        assert y0 == y1

    def test_shared_weights_translation_equivariance(self):
        m = YangModel(patch=3, rng=1)
        x = RNG.standard_normal((1, 2, 10, 10))
        y = m.forward(x)
        ys = m.forward(np.roll(x, 3, axis=3))
        np.testing.assert_allclose(ys[:, :, :, 4:9], np.roll(y, 3, axis=3)[:, :, :, 4:9], atol=1e-10)

    def test_input_gradient(self):
        m = YangModel(patch=3, hidden=(6,), rng=2)
        x = RNG.standard_normal((1, 2, 5, 5))
        out = m.forward(x.copy(), training=True)
        analytic = m.backward(np.ones_like(out))
        numeric = numerical_grad(lambda v: float(m.forward(v, training=False).sum()), x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_cheaper_than_tompson(self):
        yang = YangModel(rng=0)
        tompson = tompson_arch(8).build(rng=0)
        assert yang.flops((2, 32, 32)) < tompson.flops((2, 32, 32))

    def test_parameters_exposed(self):
        m = YangModel(hidden=(6, 4), rng=0)
        assert len(m.parameters()) == 6  # three Dense layers x (W, b)
