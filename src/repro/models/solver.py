"""Adapter exposing a trained network as a pressure solver.

The Poisson solve ``A p = b`` is linear, so two tricks apply:

* **scale equivariance** — the network is trained on unit-variance
  right-hand sides; the adapter normalises ``b`` by its standard deviation
  over fluid cells and rescales the prediction, so one model covers all
  magnitudes;
* **defect correction** — the prediction can be refined by re-applying the
  network to the residual: ``p <- p + NN(b - A p)``.  Each pass costs one
  inference and multiplies the residual by the network's one-shot error
  factor.

The paper's GPU-scale CNNs reach their reported quality in a single
inference; our CPU-scale CNNs use a small number of passes (default 2) to
land in the same quality band — a documented substitution (see DESIGN.md).
The returned pressure is zeroed on solids and mean-centred over fluid,
matching the exact solver's convention.

Hot-path caching: the stacked network input ``(N, 2, H, W)`` is a reused
workspace buffer (each call writes the solid masks into its geometry
channel directly), so steady-state inference performs no per-call input
allocations.  ``reset()`` drops it.

Inference engine: forward passes run through a compiled single-precision
:class:`repro.nn.InferencePlan` (built lazily per input shape and batch
capacity, rebuilt only when either grows).  The normalised residual is
cast to float32 on the way into the plan and the predicted pressure
increment is cast back to float64 here at the solver boundary, so
everything downstream (PCG-grade residual accounting, DivNorm histories,
checkpoints) stays double.  Models outside the plan vocabulary fall back to
the legacy layer-by-layer forward (counted via
``solver/<name>/plan_unsupported``).

Batch dimension: :meth:`NNProjectionSolver.solve_many` assembles *several*
same-shape problems (possibly with different solid masks) into one stacked
``(N, 2, H, W)`` tensor and runs the defect-correction passes as batched
forward passes — one CNN inference per pass for the whole batch, which is
how the farm's batched inference service amortises inference across
concurrent simulations (cf. Tompson et al.'s batched training/inference).
The single-sample :meth:`~NNProjectionSolver.solve` is the ``N = 1`` case
of the same code path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fluid.kernels import GeometryKernels
from repro.fluid.solver_api import MaskKeyedCache, PressureSolver, SolveResult
from repro.metrics import MetricsRegistry, get_metrics
from repro.nn import InferencePlan, Layer, Network, PlanError, analyze_network
from repro.trace import get_tracer

__all__ = ["NNProjectionSolver"]


class NNProjectionSolver(PressureSolver):
    """Pressure-solver protocol implementation backed by a neural network."""

    def __init__(
        self,
        model: Layer,
        name: str = "nn",
        passes: int = 2,
        metrics: MetricsRegistry | None = None,
    ):
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.model = model
        self.name = name
        self.passes = passes
        self._metrics = metrics
        # multi-entry: batched farm solves interleave several geometries
        self._kernels_cache = MaskKeyedCache("kernels", capacity=16)
        self._x: np.ndarray | None = None  # reused (N, 2, H, W) input workspace
        self._plan: InferencePlan | None = None
        self._plan_unsupported = False

    def reset(self) -> None:
        """Drop the cached geometry kernels and all workspace buffers."""
        self._kernels_cache.clear()
        self._x = None
        self._plan = None
        self._plan_unsupported = False
        stack = [self.model]
        while stack:
            layer = stack.pop()
            if hasattr(layer, "reset_workspace"):
                layer.reset_workspace()
            stack.extend(getattr(layer, "layers", []))

    def ensure_capacity(self, shape: tuple[int, int], capacity: int) -> None:
        """Pre-size the input workspace and inference plan for a batch.

        The farm's batched inference service calls this once at full batch
        capacity so that shrinking batches (jobs finishing at different
        steps) run through leading-axis views of one plan instead of
        triggering rebuilds.
        """
        shape = tuple(shape)
        capacity = int(capacity)
        if (
            self._x is None
            or self._x.shape[0] < capacity
            or self._x.shape[2:] != shape
        ):
            self._x = np.empty((capacity, 2) + shape, dtype=np.float64)
        metrics = self._metrics if self._metrics is not None else get_metrics()
        self._ensure_plan(shape, self._x.shape[0], metrics)

    def _ensure_plan(
        self, shape: tuple[int, int], capacity: int, metrics: MetricsRegistry
    ) -> InferencePlan | None:
        """The compiled plan for ``(2,) + shape`` at ``capacity``, or None.

        Plans are compiled once per (input shape, batch capacity); models
        outside the plan vocabulary permanently fall back to the legacy
        layer-by-layer forward (counted, not raised).
        """
        if self._plan_unsupported:
            return None
        plan = self._plan
        if (
            plan is not None
            and plan.input_shape == (2,) + shape
            and plan.capacity == capacity
        ):
            return plan
        try:
            with metrics.measure(f"solver/{self.name}/plan_build", capacity=capacity):
                self._plan = InferencePlan(
                    self.model, (2,) + shape, batch_capacity=capacity
                )
        except PlanError:
            self._plan = None
            self._plan_unsupported = True
            metrics.inc(f"solver/{self.name}/plan_unsupported")
            return None
        get_tracer().event(
            "plan_build", solver=self.name, shape=list(shape), capacity=capacity
        )
        return self._plan

    def _infer(self, x: np.ndarray, metrics: MetricsRegistry) -> np.ndarray:
        """One stacked forward pass through the plan (legacy on fallback)."""
        plan = self._ensure_plan(x.shape[2:], self._x.shape[0], metrics)
        if plan is None:
            return self.model.forward(x, training=False)
        return plan.run(x)

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Approximate the Poisson solution with ``passes`` network inferences."""
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.measure(f"solver/{self.name}/solve"):
            result = self._solve_many([b], [solid], metrics)[0]
        metrics.inc(f"solver/{self.name}/inferences", result.iterations)
        return result

    def solve_many(
        self, bs: Sequence[np.ndarray], solids: Sequence[np.ndarray]
    ) -> list[SolveResult]:
        """Solve several same-shape problems with stacked batch inference.

        All right-hand sides (and masks) must share one ``(H, W)`` shape;
        the masks themselves may differ — each sample carries its own
        geometry channel.  Every defect-correction pass runs the CNN once
        over the whole ``(N, 2, H, W)`` stack, so inference cost per sample
        drops with batch size.  Results match per-sample :meth:`solve`
        calls exactly (same operations, same order).
        """
        metrics = self._metrics if self._metrics is not None else get_metrics()
        with metrics.measure(f"solver/{self.name}/solve_batch"):
            results = self._solve_many(list(bs), list(solids), metrics)
        metrics.inc(f"solver/{self.name}/batched_samples", len(results))
        metrics.inc(
            f"solver/{self.name}/inferences", sum(r.iterations for r in results)
        )
        return results

    def _solve_many(
        self,
        bs: list[np.ndarray],
        solids: list[np.ndarray],
        metrics: MetricsRegistry,
    ) -> list[SolveResult]:
        if len(bs) != len(solids):
            raise ValueError(f"{len(bs)} right-hand sides but {len(solids)} masks")
        n = len(bs)
        if n == 0:
            return []
        shape = bs[0].shape
        for arr in list(bs) + list(solids):
            if arr.shape != shape:
                raise ValueError(
                    f"batched solve requires one shared shape, got {arr.shape} != {shape}"
                )
        from repro.fluid.laplacian import remove_nullspace

        fluids = [~s for s in solids]
        nfs = [int(f.sum()) for f in fluids]

        # stacked input workspace; capacity-based so shrinking batches
        # (jobs finishing at different times) reuse the same buffer
        if (
            self._x is None
            or self._x.shape[0] < n
            or self._x.shape[2:] != shape
        ):
            self._x = np.empty((n, 2) + shape, dtype=np.float64)
        x = self._x[:n]
        for i, solid in enumerate(solids):
            x[i, 1] = solid

        B = [remove_nullspace(b, s) if nf else np.zeros_like(b) for b, s, nf in zip(bs, solids, nfs)]
        P = [np.zeros_like(b) for b in bs]
        R = list(B)
        # defect-correction residuals run through the compiled CSR Laplacian
        # (bitwise equal to apply_laplacian, see repro.fluid.kernels)
        kerns = [
            self._kernels_cache.get(s, lambda s=s: GeometryKernels(s), metrics)
            for s in solids
        ]
        done = [0] * n
        for _ in range(self.passes):
            sigmas = [
                float(R[i][fluids[i]].std()) if nfs[i] else 0.0 for i in range(n)
            ]
            active = [i for i in range(n) if sigmas[i] >= 1e-300]
            if not active:
                break
            for i in range(n):
                if i in active:
                    np.divide(R[i], sigmas[i], out=x[i, 0])
                else:
                    x[i, 0] = 0.0
            out = self._infer(x, metrics)
            for i in active:
                dp = out[i, 0] * sigmas[i]
                P[i] = P[i] + np.where(fluids[i], dp, 0.0)
                kern = kerns[i]
                lap = kern.scatter(kern.matvec(kern.gather(P[i])))
                R[i] = remove_nullspace(B[i] - lap, solids[i])
                done[i] += 1

        results = []
        model_flops = self.model.flops((2,) + shape)
        for i in range(n):
            if nfs[i] == 0:
                results.append(SolveResult(np.zeros_like(bs[i]), 0, True, 0.0))
                continue
            p = remove_nullspace(P[i], solids[i])
            residual = float(np.abs(R[i][fluids[i]]).max())
            flops = done[i] * (model_flops + 12.0 * nfs[i])
            results.append(SolveResult(p, done[i], True, residual, flops))
        return results

    def resource_usage(self, shape: tuple[int, int]):
        """Static FLOP/parameter/memory profile for a given grid shape.

        FLOPs cover all refinement passes of one solve.
        """
        if isinstance(self.model, Network):
            usage = analyze_network(self.model, (2,) + shape)
        else:
            from repro.nn.accounting import ResourceUsage

            usage = ResourceUsage(
                flops=self.model.flops((2,) + shape),
                params=self.model.param_count(),
                memory_bytes=float(self.model.param_count() * 4 + 3 * shape[0] * shape[1] * 4),
            )
        usage.flops = self.passes * (usage.flops + 12.0 * shape[0] * shape[1])
        return usage
