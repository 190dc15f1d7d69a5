"""The quality-aware model-switch runtime (Section 6.2, Algorithm 2).

The controller plugs into :class:`repro.fluid.FluidSimulator` as a per-step
hook.  Every check interval it:

1. fits a linear trend through the tail of the CumDivNorm history and
   extrapolates CumDivNorm at the final step,
2. converts that to a predicted final quality loss ``Q'`` with the current
   model's KNN database,
3. compares ``Q'`` to the requirement ``q``: within tolerance -> keep the
   model; comfortably better -> switch one step *faster*; worse -> switch
   one step *more accurate*; no more accurate model left -> request a
   restart with the exact PCG method (trace event ``pcg_fallback``).

Candidates are ordered along the Pareto front (ascending solver time =
ascending accuracy).  The starting model is the one the MLP scored highest
(Algorithm 2 line 1); the "no MLP" ablation of Figure 12 starts from the
fastest model and only ever upgrades, sticking with the first model that
satisfies the requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fluid import FluidSimulator, RestartRequested, StepRecord
from repro.metrics import MetricsRegistry, get_metrics
from repro.trace import get_tracer

from .knn import QlossKNNPredictor
from .regression import predict_final_cumdivnorm
from .selection import SelectedModel

__all__ = ["SwitchEvent", "AdaptiveStats", "AdaptiveController"]


@dataclass
class SwitchEvent:
    """One model-switch decision."""

    step: int
    from_model: str
    to_model: str
    predicted_qloss: float


@dataclass
class AdaptiveStats:
    """Bookkeeping of one adaptive run (Table 3 feeds on this)."""

    steps_per_model: dict[str, int] = field(default_factory=dict)
    solve_seconds_per_model: dict[str, float] = field(default_factory=dict)
    switches: list[SwitchEvent] = field(default_factory=list)
    predictions: list[tuple[int, float]] = field(default_factory=list)
    restart_requested: bool = False

    def time_share(self) -> dict[str, float]:
        """Fraction of solver time spent in each model."""
        total = sum(self.solve_seconds_per_model.values())
        if total <= 0:
            return {k: 0.0 for k in self.solve_seconds_per_model}
        return {k: v / total for k, v in self.solve_seconds_per_model.items()}


class AdaptiveController:
    """Algorithm 2: periodic quality prediction and model switching."""

    def __init__(
        self,
        candidates: list[SelectedModel],
        knn: QlossKNNPredictor,
        q_requirement: float,
        total_steps: int,
        check_interval: int = 5,
        skip_first: int = 5,
        tolerance: float = 0.1,
        downshift_margin: float = 3.0,
        passes: int = 2,
        use_mlp_start: bool = True,
        upgrade_only: bool = False,
        metrics: MetricsRegistry | None = None,
        scenario: str = "smoke_plume",
    ):
        if not candidates:
            raise ValueError("need at least one candidate model")
        if check_interval < 3:
            raise ValueError("check interval must allow a 3-point trend fit")
        # order along the quality/time trade-off: fastest first
        self.ladder = sorted(candidates, key=lambda s: s.model_seconds)
        self.knn = knn
        self.q = q_requirement
        self.total_steps = total_steps
        self.check_interval = check_interval
        self.skip_first = skip_first
        self.tolerance = tolerance
        self.downshift_margin = downshift_margin
        self.passes = passes
        self.upgrade_only = upgrade_only
        self._metrics = metrics
        #: scenario label on the controller's decision counters (registry
        #: name only — parameters would blow label cardinality)
        self.scenario = scenario.split(":", 1)[0] if scenario else "smoke_plume"
        self._satisfied = False

        if use_mlp_start:
            # highest success probability; on ties prefer the more accurate
            # (slower) model — starting too fast risks unrecoverable drift
            best = max(candidates, key=lambda s: (s.success_prob, s.model_seconds))
            self._idx = next(i for i, s in enumerate(self.ladder) if s.name == best.name)
        else:
            self._idx = 0  # fastest
        self.stats = AdaptiveStats()
        self._cumdivnorm: list[float] = []
        self._solvers = {s.name: s.model.solver(passes=passes) for s in self.ladder}

    # ------------------------------------------------------------------
    @property
    def current(self) -> SelectedModel:
        """The model currently approximating the projection."""
        return self.ladder[self._idx]

    def initial_solver(self):
        """Solver the simulation must start with (install before running)."""
        return self._solvers[self.current.name]

    # ------------------------------------------------------------------
    def __call__(self, sim: FluidSimulator, record: StepRecord) -> None:
        """Per-step hook: account usage, and decide at interval boundaries."""
        name = self.current.name
        self.stats.steps_per_model[name] = self.stats.steps_per_model.get(name, 0) + 1
        self.stats.solve_seconds_per_model[name] = (
            self.stats.solve_seconds_per_model.get(name, 0.0) + record.projection.solve_seconds
        )
        self._cumdivnorm.append(
            (self._cumdivnorm[-1] if self._cumdivnorm else 0.0) + record.divnorm
        )

        step = record.step
        if step + 1 <= self.skip_first:
            return
        if (step + 1 - self.skip_first) % self.check_interval != 0:
            return
        if step + 1 >= self.total_steps:
            return

        m = self._metrics if self._metrics is not None else get_metrics()
        m.inc("adaptive/checks")
        cdn_final = predict_final_cumdivnorm(
            np.asarray(self._cumdivnorm),
            self.total_steps,
            check_interval=self.check_interval,
        )
        try:
            q_pred = self.knn.predict(self.current.name, cdn_final)
        except KeyError:
            return  # no database for this model; keep running
        self.stats.predictions.append((step, q_pred))
        m.inc("adaptive/predictions")
        self._decide(sim, step, q_pred)

    # ------------------------------------------------------------------
    def _event_counter(self):
        """The labeled Algorithm 2 decision counter (fork-safe: resolved
        against the live default registry at event time, not construction)."""
        m = self._metrics if self._metrics is not None else get_metrics()
        return m.families.counter(
            "scheduler_events_total",
            help="Algorithm 2 decisions by event, target solver and scenario.",
            labels=("event", "solver", "scenario"),
        )

    def _switch(self, sim: FluidSimulator, step: int, new_idx: int, q_pred: float) -> None:
        old = self.current.name
        self._idx = new_idx
        sim.solver = self._solvers[self.current.name]
        self._event_counter().inc(
            event="model_switch", solver=self.current.name, scenario=self.scenario
        )
        self.stats.switches.append(
            SwitchEvent(step=step, from_model=old, to_model=self.current.name, predicted_qloss=q_pred)
        )
        get_tracer().event(
            "model_switch",
            step=step,
            from_model=old,
            to_model=self.current.name,
            predicted_qloss=q_pred,
        )

    def _decide(self, sim: FluidSimulator, step: int, q_pred: float) -> None:
        if self.upgrade_only and self._satisfied:
            return
        close = abs(q_pred - self.q) <= self.tolerance * self.q
        if close:
            self._satisfied = True
            return
        if q_pred < self.q:
            self._satisfied = True
            if self.upgrade_only:
                return
            # hysteresis: only trade quality for speed with real headroom,
            # otherwise prediction noise causes harmful churn
            headroom = self.q * (1.0 - self.downshift_margin * self.tolerance)
            if self._idx > 0 and q_pred < headroom:
                self._switch(sim, step, self._idx - 1, q_pred)
            return
        # predicted violation: go more accurate, or give up
        if self._idx + 1 < len(self.ladder):
            self._switch(sim, step, self._idx + 1, q_pred)
            return
        self.stats.restart_requested = True
        self._event_counter().inc(
            event="pcg_fallback", solver="pcg", scenario=self.scenario
        )
        get_tracer().event(
            "pcg_fallback",
            step=step,
            reason="qloss_requirement",
            predicted_qloss=q_pred,
            q_requirement=self.q,
        )
        raise RestartRequested(
            f"predicted qloss {q_pred:.4g} exceeds requirement {self.q:.4g} "
            "and no more accurate model is available"
        )
