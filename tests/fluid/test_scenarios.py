"""Scenario registry: specs, round-trips, drivers, cache re-keying."""

import json

import numpy as np
import pytest

from repro.fluid import (
    CellType,
    FluidSimulator,
    MACGrid2D,
    PCGSolver,
    ScenarioSpec,
    SimulationConfig,
    SmokeSource,
    build_scenario,
    disc_mask,
    list_scenarios,
    parse_scenario,
)
from repro.metrics import MetricsRegistry


def run_scenario(selector, rng=0, steps=4, metrics=None, solver=None):
    """Build + run one scenario the way the CLI/worker wire it."""
    m = metrics if metrics is not None else MetricsRegistry()
    grid, driver = build_scenario(selector, rng=rng)
    wrapped = driver.wrap_solver(solver if solver is not None else PCGSolver(metrics=m))
    overrides = getattr(driver, "config_overrides", {})
    config = SimulationConfig(**overrides) if overrides else None
    sim = FluidSimulator(grid, wrapped, driver, config=config, metrics=m)
    return sim, sim.run(steps)


class TestScenarioSpec:
    def test_frozen_and_hashable(self):
        spec = ScenarioSpec("smoke_plume", grid=32)
        with pytest.raises(AttributeError):
            spec.name = "other"
        assert hash(spec) == hash(ScenarioSpec("smoke_plume", grid=32))
        assert spec == ScenarioSpec("smoke_plume", grid=32)
        assert spec != ScenarioSpec("smoke_plume", grid=64)

    def test_string_round_trip(self):
        spec = ScenarioSpec("dam_break", grid=24, gravity=2.5, reinit_every=0)
        assert parse_scenario(spec.to_string()) == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec("inflow_jet", grid=16, side="right", speed=1.5)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_parse_value_types(self):
        spec = parse_scenario("s:a=1,b=1.5,c=true,d=none,e=left")
        assert spec.params == (("a", 1), ("b", 1.5), ("c", True), ("d", None), ("e", "left"))

    def test_parse_passthrough_and_malformed(self):
        spec = ScenarioSpec("smoke_plume")
        assert parse_scenario(spec) is spec
        with pytest.raises(ValueError, match="malformed"):
            parse_scenario("smoke_plume:grid")

    def test_rejects_non_scalar_params(self):
        with pytest.raises(TypeError):
            ScenarioSpec("s", mask=np.zeros(3))

    def test_with_defaults_only_fills_missing(self):
        spec = ScenarioSpec("smoke_plume", grid=64)
        assert spec.with_defaults(grid=32) is spec
        assert spec.with_defaults(extra=1).get("extra") == 1

    def test_slug_is_filesystem_safe_and_stable(self):
        assert ScenarioSpec("smoke_plume").slug == "smoke_plume"
        a = ScenarioSpec("dam_break", grid=64).slug
        assert a == ScenarioSpec("dam_break", grid=64).slug
        assert a.startswith("dam_break-")
        assert "=" not in a and ":" not in a


class TestRegistry:
    def test_at_least_five_scenarios(self):
        names = {info.name for info in list_scenarios()}
        assert len(names) >= 5
        assert {"smoke_plume", "inflow_jet", "moving_cylinder", "dam_break"} <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("warp_drive")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_scenario("smoke_plume:warp=9")

    def test_params_carry_docs(self):
        for info in list_scenarios():
            assert info.description
            assert any(p.name == "grid" for p in info.params)

    def test_build_bitwise_reproducible_after_round_trip(self):
        # spec -> JSON -> spec must materialise the identical grid bit for bit
        spec = ScenarioSpec("smoke_plume", grid=24)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        g1, _ = build_scenario(spec, rng=11)
        g2, _ = build_scenario(restored, rng=11)
        np.testing.assert_array_equal(g1.u, g2.u)
        np.testing.assert_array_equal(g1.v, g2.v)
        np.testing.assert_array_equal(g1.density, g2.density)
        np.testing.assert_array_equal(g1.flags, g2.flags)

    def test_registry_matches_legacy_generator(self):
        from repro.fluid import make_smoke_plume

        g1, _ = build_scenario(ScenarioSpec("smoke_plume", grid=24), rng=7)
        g2, _ = make_smoke_plume(24, 24, rng=7)
        np.testing.assert_array_equal(g1.u, g2.u)
        np.testing.assert_array_equal(g1.v, g2.v)
        np.testing.assert_array_equal(g1.density, g2.density)
        np.testing.assert_array_equal(g1.flags, g2.flags)


class TestSmokeSourceClamp:
    def test_emission_clamped_against_current_solid(self):
        # a solid stamped over half the source region (a moving obstacle
        # sweeping through it) must mask emission, not be painted over
        g = MACGrid2D(16, 16)
        mask = np.zeros((16, 16), dtype=bool)
        mask[10:12, 4:12] = True
        covered = np.zeros_like(mask)
        covered[10:12, 8:12] = True
        g.flags[covered] = CellType.SOLID
        source = SmokeSource(mask=mask)
        source.apply(g, dt=1.0)
        assert g.density[covered].sum() == 0.0
        assert (g.density[mask & ~covered] > 0).all()

    def test_inflow_not_written_into_solid_adjacent_faces(self):
        g = MACGrid2D(16, 16)
        mask = np.zeros((16, 16), dtype=bool)
        mask[10:12, 4:8] = True
        g.flags[8:14, 8:10] = CellType.SOLID  # wall right of the source
        source = SmokeSource(mask=mask, direction="right")
        source.apply(g, dt=1.0)
        # the u-face between source column 7 and solid column 8 stays 0
        assert (g.u[10:12, 8] == 0.0).all()
        assert (g.u[10:12, 5:8] == source.inflow).all()

    @pytest.mark.parametrize(
        "direction,sign,axis",
        [("up", -1.0, "v"), ("down", 1.0, "v"), ("left", -1.0, "u"), ("right", 1.0, "u")],
    )
    def test_direction_variants(self, direction, sign, axis):
        g = MACGrid2D(12, 12)
        mask = np.zeros((12, 12), dtype=bool)
        mask[5:7, 5:7] = True
        source = SmokeSource(mask=mask, inflow=0.5, direction=direction)
        source.apply(g, dt=0.1)
        field = g.v if axis == "v" else g.u
        assert (field[5:7, 5:7] == sign * 0.5).all()

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown direction"):
            SmokeSource(mask=np.zeros((4, 4), dtype=bool), direction="sideways")


class TestMovingSolids:
    def test_moving_cylinder_re_keys_geometry_caches(self):
        # a moving solid must never reuse stale MIC(0)/kernel artefacts:
        # every step has a fresh mask, so every solve is a cache miss
        m = MetricsRegistry()
        steps = 5
        run_scenario("moving_cylinder:grid=24", rng=0, steps=steps, metrics=m)
        counters = m.to_dict()["counters"]
        assert counters["sim/cache/mic0/miss"] == steps
        assert counters["sim/cache/kernels/miss"] == steps
        assert counters.get("sim/cache/mic0/hit", 0.0) == 0.0

    def test_static_scenario_reuses_geometry_caches(self):
        m = MetricsRegistry()
        steps = 5
        run_scenario("smoke_plume:grid=24", rng=0, steps=steps, metrics=m)
        counters = m.to_dict()["counters"]
        assert counters["sim/cache/mic0/miss"] == 1.0
        assert counters["sim/cache/mic0/hit"] == steps - 1

    def test_nn_geometry_channel_re_keys(self):
        # each step's solve must see that step's mask, never a stale one:
        # the reused solver matches a fresh solver on every step's problem
        from repro.models import NNProjectionSolver, tompson_arch

        solves = []

        class Recording(NNProjectionSolver):
            def solve(self, b, solid):
                res = super().solve(b, solid)
                solves.append((b.copy(), solid.copy(), res.pressure.copy()))
                return res

        steps = 3
        solver = Recording(tompson_arch(4).build(rng=0), passes=1)
        run_scenario("moving_cylinder:grid=16", rng=0, steps=steps, solver=solver)
        assert len(solves) == steps
        assert not np.array_equal(solves[0][1], solves[-1][1])  # the disc moved
        for b, solid, pressure in solves:
            fresh = NNProjectionSolver(tompson_arch(4).build(rng=0), passes=1)
            np.testing.assert_array_equal(fresh.solve(b, solid).pressure, pressure)

    def test_disc_actually_moves_and_stays_rigid(self):
        g, driver = build_scenario("moving_cylinder:grid=24", rng=0)
        first = g.solid.copy()
        sim_like_masks = [first]
        for _ in range(3):
            driver.apply(g, dt=0.4)
            sim_like_masks.append(g.solid.copy())
        assert any(not np.array_equal(first, later) for later in sim_like_masks[1:])
        # the disc keeps its area (rigid body, no erosion) up to rasterisation
        border = np.zeros_like(first)
        border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
        areas = [int((mask & ~border).sum()) for mask in sim_like_masks]
        assert max(areas) - min(areas) <= max(2, areas[0] // 4)

    def test_solid_velocity_imposed_on_faces(self):
        g = MACGrid2D(16, 16)
        from repro.fluid import MovingSolidDriver

        driver = MovingSolidDriver(
            g.solid.copy(),
            mask_at=lambda t: disc_mask((16, 16), 8.0 + t, 8.0, 2.5),
            velocity_at=lambda t: (0.25, 0.0),
        )
        driver.apply(g, dt=1.0)
        dyn = g.solid.copy()
        dyn[0, :] = dyn[-1, :] = dyn[:, 0] = dyn[:, -1] = False
        ys, xs = np.nonzero(dyn)
        inner = (xs > 1) & (xs < 14)
        assert (g.u[ys[inner], xs[inner]] == 0.25).all()
        assert (g.u[ys[inner], xs[inner] + 1] == 0.25).all()


class TestScenarioRuns:
    @pytest.mark.parametrize("name", [info.name for info in list_scenarios()])
    def test_every_scenario_steps_cleanly(self, name):
        sim, result = run_scenario(f"{name}:grid=16", rng=2, steps=3)
        assert len(result.records) == 3
        assert all(np.isfinite(r.divnorm) for r in result.records)

    def test_karman_street_disables_buoyancy(self):
        _, driver = build_scenario("karman_street:grid=16", rng=0)
        assert driver.config_overrides["buoyancy"] == 0.0
        assert driver.config_overrides["vorticity_eps"] > 0.0

    def test_composite_driver_merges_and_namespaces(self):
        from repro.fluid import CompositeDriver, MovingSolidDriver

        g = MACGrid2D(12, 12)
        mover = MovingSolidDriver(
            g.solid.copy(),
            mask_at=lambda t: disc_mask((12, 12), 6.0 + t, 6.0, 2.0),
            velocity_at=lambda t: (0.1, 0.0),
        )
        comp = CompositeDriver(mover, SmokeSource(mask=np.zeros((12, 12), dtype=bool)))
        comp.apply(g, dt=0.5)
        state = comp.state_arrays()
        assert "0/t" in state
        mover.t = 99.0
        comp.load_state_arrays(state)
        assert mover.t == 0.5
