"""Tests for the quality-aware model-switch runtime (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveController,
    QlossKNNPredictor,
    SelectedModel,
)
from repro.data import InputProblem
from repro.fluid import FluidSimulator, RestartRequested
from repro.metrics import MetricsRegistry
from repro.models import TrainedModel, tompson_arch
from repro.trace import Tracer, set_tracer


def make_selected(name, seconds, prob, channels=4, rng=0):
    arch = tompson_arch(channels)
    arch.name = name
    model = TrainedModel(spec=arch, network=arch.build(rng=rng))
    return SelectedModel(model=model, success_prob=prob, model_seconds=seconds, expected_seconds=seconds)


def make_knn(entries: dict[str, float], spread=0.0):
    """KNN that predicts a fixed qloss per model regardless of cumdivnorm."""
    knn = QlossKNNPredictor(k=2)
    for name, q in entries.items():
        knn.add_database(name, [(0.0, q), (1e12, q)])
    return knn


def run_sim(controller, steps=16, seed=0):
    grid, source = InputProblem(16, seed).materialize()
    sim = FluidSimulator(grid, controller.initial_solver(), source, controller=controller)
    return sim.run(steps)


class TestControllerConstruction:
    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            AdaptiveController([], make_knn({}), 0.01, 16)

    def test_needs_reasonable_interval(self):
        with pytest.raises(ValueError):
            AdaptiveController([make_selected("a", 1.0, 0.9)], make_knn({"a": 0.01}), 0.01, 16, check_interval=2)

    def test_mlp_start_picks_highest_probability(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        ctl = AdaptiveController(cands, make_knn({"fast": 0.01, "slow": 0.01}), 0.01, 16)
        assert ctl.current.name == "slow"

    def test_no_mlp_start_picks_fastest(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        ctl = AdaptiveController(
            cands, make_knn({"fast": 0.01, "slow": 0.01}), 0.01, 16, use_mlp_start=False
        )
        assert ctl.current.name == "fast"

    def test_ladder_sorted_by_time(self):
        cands = [make_selected("slow", 3.0, 0.9), make_selected("fast", 1.0, 0.5, rng=1)]
        ctl = AdaptiveController(cands, make_knn({"slow": 0.01, "fast": 0.01}), 0.01, 16)
        assert [s.name for s in ctl.ladder] == ["fast", "slow"]


class TestSwitchingBehaviour:
    def test_keeps_model_when_prediction_close(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        # predicted qloss exactly the requirement -> stay
        ctl = AdaptiveController(cands, make_knn({"fast": 0.01, "slow": 0.01}), 0.01, 16)
        run_sim(ctl)
        assert ctl.stats.switches == []

    def test_downgrades_when_quality_abundant(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        # prediction far below requirement -> move to the faster model
        ctl = AdaptiveController(cands, make_knn({"fast": 0.001, "slow": 0.001}), 0.5, 16)
        run_sim(ctl)
        assert any(s.to_model == "fast" for s in ctl.stats.switches)
        assert ctl.current.name == "fast"

    def test_upgrades_when_quality_violated(self):
        cands = [make_selected("fast", 1.0, 0.9), make_selected("slow", 2.0, 0.5, rng=1)]
        knn = make_knn({"fast": 0.9, "slow": 0.005})
        ctl = AdaptiveController(cands, knn, 0.01, 16)
        run_sim(ctl)
        assert any(s.to_model == "slow" for s in ctl.stats.switches)

    def test_restart_when_no_better_model(self):
        cands = [make_selected("only", 1.0, 0.9)]
        knn = make_knn({"only": 0.9})  # always predicted to violate
        metrics = MetricsRegistry()
        ctl = AdaptiveController(cands, knn, 0.01, 16, metrics=metrics)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with pytest.raises(RestartRequested):
                run_sim(ctl)
        finally:
            set_tracer(previous)
        assert ctl.stats.restart_requested
        events = metrics.families.counter(
            "scheduler_events_total", labels=("event", "solver", "scenario")
        )
        assert events.value(event="pcg_fallback", solver="pcg", scenario="smoke_plume") == 1
        assert events.total() == 1
        (fallback,) = tracer.events("pcg_fallback")
        assert fallback.attrs["predicted_qloss"] == pytest.approx(0.9)
        assert fallback.attrs["q_requirement"] == 0.01

    def test_upgrade_only_sticks_after_satisfied(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        knn = make_knn({"fast": 0.0001, "slow": 0.0001})
        ctl = AdaptiveController(cands, knn, 0.5, 16, use_mlp_start=False, upgrade_only=True)
        run_sim(ctl)
        # satisfied immediately on the fastest model; never downgraded (it's
        # already fastest) and never upgraded
        assert ctl.stats.switches == []
        assert ctl.current.name == "fast"

    def test_missing_database_keeps_running(self):
        cands = [make_selected("nodb", 1.0, 0.9)]
        ctl = AdaptiveController(cands, QlossKNNPredictor(), 0.01, 16)
        res = run_sim(ctl)
        assert len(res.records) == 16
        assert ctl.stats.switches == []


class TestStats:
    def test_steps_accounted_per_model(self):
        cands = [make_selected("fast", 1.0, 0.5), make_selected("slow", 2.0, 0.9, rng=1)]
        knn = make_knn({"fast": 0.001, "slow": 0.001})
        ctl = AdaptiveController(cands, knn, 0.5, 16)
        run_sim(ctl)
        assert sum(ctl.stats.steps_per_model.values()) == 16

    def test_time_share_sums_to_one(self):
        cands = [make_selected("a", 1.0, 0.9)]
        ctl = AdaptiveController(cands, make_knn({"a": 0.01}), 0.01, 16)
        run_sim(ctl)
        share = ctl.stats.time_share()
        assert sum(share.values()) == pytest.approx(1.0)

    def test_predictions_logged_each_interval(self):
        cands = [make_selected("a", 1.0, 0.9)]
        ctl = AdaptiveController(cands, make_knn({"a": 0.01}), 0.01, 20)
        run_sim(ctl, steps=20)
        # intervals end at steps 9 and 14 (skip 5, every 5, last suppressed)
        assert len(ctl.stats.predictions) == 2
