"""Training-frame collection for the approximation networks.

Runs the exact (PCG) simulation over a set of input problems and records,
at every pressure solve, the normalised Poisson right-hand side, the
geometry, the exact pressure, the solid mask and the DivNorm weights.  The
resulting dict-of-arrays feeds :class:`repro.nn.Trainer` directly, for both
the unsupervised DivNorm objective (``b``/``solid``/``weights``) and the
supervised MSE objective (``y``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fluid import (
    FluidSimulator,
    PCGSolver,
    SimulationConfig,
    divnorm_weights,
)
from repro.fluid.pcg import SolveResult
from .problems import InputProblem

__all__ = ["RecordingSolver", "collect_training_frames"]


@dataclass
class RecordingSolver:
    """Wrap an exact solver, capturing (b, solution) pairs at each solve."""

    inner: PCGSolver
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)
    stride: int = 1
    _count: int = 0

    @property
    def name(self) -> str:
        return self.inner.name

    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        res = self.inner.solve(b, solid)
        if self._count % self.stride == 0:
            self.samples.append((b.copy(), res.pressure.copy(), solid.copy()))
        self._count += 1
        return res


def collect_training_frames(
    problems: list[InputProblem],
    n_steps: int = 8,
    stride: int = 2,
    config: SimulationConfig | None = None,
) -> dict[str, np.ndarray]:
    """Build a training dataset of normalised Poisson problems.

    Returns a dict with keys ``x`` (N,2,H,W), ``b`` (N,1,H,W), ``y``
    (N,1,H,W), ``solid`` (N,H,W) and ``weights`` (N,H,W).  All grids in
    ``problems`` must share one size.
    """
    if not problems:
        raise ValueError("no problems given")
    sizes = {p.grid_size for p in problems}
    if len(sizes) != 1:
        raise ValueError(f"mixed grid sizes in one dataset: {sorted(sizes)}")

    xs, bs, ys, solids, weights = [], [], [], [], []
    for prob in problems:
        grid, source = prob.materialize()
        rec = RecordingSolver(PCGSolver(), stride=stride)
        sim = FluidSimulator(grid, rec, source, config or SimulationConfig())
        sim.run(n_steps)
        w = divnorm_weights(grid.solid)
        for b, p, solid in rec.samples:
            fluid = ~solid
            if not fluid.any():
                continue
            from repro.fluid.laplacian import remove_nullspace

            bz = remove_nullspace(b, solid)
            sigma = float(bz[fluid].std())
            if sigma < 1e-12:
                continue
            bn = bz / sigma
            pn = remove_nullspace(p, solid) / sigma
            xs.append(np.stack([bn, solid.astype(np.float64)]))
            bs.append(bn[None])
            ys.append(pn[None])
            solids.append(solid)
            weights.append(w)

    if not xs:
        raise ValueError("no usable frames collected (all-zero divergence?)")
    return {
        "x": np.stack(xs),
        "b": np.stack(bs),
        "y": np.stack(ys),
        "solid": np.stack(solids),
        "weights": np.stack(weights),
    }
