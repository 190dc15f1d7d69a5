"""Smoke test of the benchmark at tiny sizes.

Runs every workload untraced and traced for a fraction of a second and
checks that each reports exactly the metrics BENCHMARK.json declares, with
their units, and that every correctness check passes.  Run it from the
repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_declared_metrics(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0.4, trace=trace, sizes=TINY, out_dir=tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
    assert result["correct"], result["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        spans = json.loads((tmp_path / f"spans-{workload}-s3.json").read_text())
        ids = {s["id"] for s in spans}
        assert spans and all(s["root"] for s in spans)
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        # one root per simulation (closed loops) or per job (served)
        tops = {"smart.run", "fluid.run", "farm.run_job"}
        roots = {s["root"] for s in spans if s["parent"] is None and s["name"] in tops}
        assert len(roots) == result["report"]["counts"]["simulations"]
    else:
        for m in declared:
            assert metrics[m["name"]]["value"] != 0, m["name"]


def test_cli_refuses_to_run_without_program_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero with no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
