"""Regenerate the pinned Smart-fluidnet framework the benchmark loads.

Runs the offline phase (``SmartFluidnet.build_offline``) once at the
experiments' ``ci`` offline config and saves it with
``repro.io.save_framework`` into ``perfbench/framework/``.  The benchmark
only ever loads that directory: the Pareto filter and the Eq. 8 selection
use measured wall times, so two builds from the same seed can pick
different runtime models, and a benchmark that rebuilt it would compare
different frameworks across commits.

A change to the offline phase therefore shows in the benchmark only after
a separate change reruns this script and commits the new directory.

Usage (from the repository root, takes a few minutes on two cores)::

    python3 perfbench/make_framework.py [--seed 1] [--out perfbench/framework]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="offline-phase rng seed")
    ap.add_argument("--out", type=Path, default=HERE / "framework")
    args = ap.parse_args(argv)

    from repro.core import SmartFluidnet
    from repro.experiments.common import get_scale
    from repro.io import save_framework

    fw = SmartFluidnet.build_offline(config=get_scale("ci").offline, rng=args.seed)
    if args.out.exists():
        shutil.rmtree(args.out)
    save_framework(fw, args.out)
    names = ", ".join(s.name for s in fw.runtime_models)
    print(f"saved {len(fw.runtime_models)} runtime model(s) [{names}] "
          f"q={fw.requirement.q:.4g} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
