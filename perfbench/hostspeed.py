"""Host speed, measured with a fixed reference kernel between units of work.

The benchmark shares its cores with other tenants of the host, which slow
every instruction it runs by up to 1.8x, in phases from under a second to
minutes long.  A run of any length sees whichever phases fell in it, so raw
wall times of two runs of the same code differ by more than a regression
bound.  The timing metrics of the single-threaded simulation workloads are
therefore reported in *reference seconds*: the measured seconds scaled by
how fast the host ran the reference kernel during the same run,

    reference seconds = measured seconds * REFERENCE_S / median(kernel seconds)

The kernel belongs to the benchmark and never calls the program, so a
change to the program moves reference seconds as it moves wall
seconds on a steady host.  The kernel is NumPy stencil and reduction work
on a 128² grid driven from a Python loop, the same mix as a pressure solve.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on a quiet core of the host the benchmark was tuned on
#: (2-core Intel Xeon VM at 2.1 GHz), so reference seconds read as seconds there
REFERENCE_S = 0.021
_GRID = np.random.default_rng(0).standard_normal((128, 128))


def kernel() -> float:
    """150 conjugate-gradient iterations of a periodic 5-point Laplacian."""
    b = _GRID
    x, r = np.zeros_like(b), b.copy()
    p, rr = r.copy(), float((r * r).sum())
    for _ in range(150):
        ap = 4.0 * p - np.roll(p, 1, 0) - np.roll(p, -1, 0) - np.roll(p, 1, 1) - np.roll(p, -1, 1)
        alpha = rr / float((p * ap).sum())
        x += alpha * p
        r -= alpha * ap
        rn = float((r * r).sum())
        p = r + (rn / rr) * p
        rr = rn
    return float(x[0, 0])


class HostSpeed:
    """Kernel readings taken through a run; ``scale`` maps its seconds."""

    def __init__(self):
        self.readings: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            self.readings.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second (1 before any reading)."""
        return REFERENCE_S / statistics.median(self.readings) if self.readings else 1.0
