"""Smoke tests of the `repro bench` performance suite (marker: bench)."""

import json

import pytest

from repro.benchmark import SCALES, run_bench, write_bench
from repro.cli import main

pytestmark = pytest.mark.bench

EXPECTED_BENCHMARKS = {
    "pcg_geometry_cache",
    "pcg_warm_start",
    "simulation_step",
    "nn_inference",
    "farm_throughput",
    "perf_kernels",
    "tracing_overhead",
    "metrics_overhead",
    "scenario_sweep",
    "service_throughput",
}


@pytest.fixture(scope="module")
def ci_report():
    return run_bench(scale="ci")


class TestRunBench:
    def test_report_schema(self, ci_report):
        assert ci_report["schema"] == "repro-bench/v1"
        assert ci_report["scale"] == "ci"
        assert {b["name"] for b in ci_report["benchmarks"]} == EXPECTED_BENCHMARKS

    def test_report_is_json_serialisable(self, ci_report):
        restored = json.loads(json.dumps(ci_report))
        assert restored["schema"] == ci_report["schema"]

    def test_geometry_cache_benchmark(self, ci_report):
        cache = next(
            b for b in ci_report["benchmarks"] if b["name"] == "pcg_geometry_cache"
        )
        assert cache["converged"]
        assert cache["cache_misses"] >= 1
        assert cache["cache_hits"] >= SCALES["ci"].solve_reps
        assert cache["cold_seconds"] > 0 and cache["cached_seconds"] > 0
        # the cached path does strictly less work; allow for timing noise in
        # CI, the tracked BENCH_*.json is generated at the default scale
        assert cache["speedup"] > 0.8

    def test_warm_start_benchmark(self, ci_report):
        warm = next(b for b in ci_report["benchmarks"] if b["name"] == "pcg_warm_start")
        assert 0 < warm["warm_iterations"] <= warm["cold_iterations"]
        assert warm["iteration_ratio"] >= 1.0

    def test_simulation_benchmark_carries_metrics(self, ci_report):
        sim = next(b for b in ci_report["benchmarks"] if b["name"] == "simulation_step")
        steps = SCALES["ci"].sim_steps
        assert sim["metrics"]["timers"]["sim/step"]["count"] == steps
        assert sim["metrics"]["timers"]["sim/step"]["count"] == steps

    def test_nn_inference_plans_vs_legacy(self, ci_report):
        nn = next(b for b in ci_report["benchmarks"] if b["name"] == "nn_inference")
        assert nn["fp32_max_abs_err"] < 1e-4
        # every timed fp32 pass ran inside the pre-allocated arena
        assert nn["workspace_reuses"] >= SCALES["ci"].infer_reps
        assert nn["arena_bytes_fp32"] > 0
        # the ISSUE acceptance floor: >= 2x fp32 plan speedup at 128^2
        assert nn["fp32_speedup"] >= 2.0

    def test_farm_throughput_compares_same_job_list(self, ci_report):
        farm = next(b for b in ci_report["benchmarks"] if b["name"] == "farm_throughput")
        assert farm["params"]["jobs"] == 8
        assert farm["serial_completed"] == 8
        assert farm["farm_completed"] == 8
        assert farm["serial_jobs_per_second"] > 0
        assert farm["farm_jobs_per_second"] > 0
        assert farm["speedup"] > 0

    def test_perf_kernels_backends_identical(self, ci_report):
        perf = next(b for b in ci_report["benchmarks"] if b["name"] == "perf_kernels")
        assert perf["converged"]
        assert perf["backends_identical"]
        assert perf["spectral_converged"]
        assert perf["pcg_solve_seconds"] > 0
        assert perf["reference_solve_seconds"] > 0
        # the compiled kernel backend must beat the matrix-free reference;
        # 2x is a loose floor (the tracked BENCH_pr3.json shows much more)
        assert perf["speedup"] > 2.0

    def test_tracing_overhead_records_activity(self, ci_report):
        tracing = next(
            b for b in ci_report["benchmarks"] if b["name"] == "tracing_overhead"
        )
        assert tracing["spans_recorded"] > 0
        assert tracing["events_recorded"] > 0
        assert tracing["disabled_seconds"] > 0
        assert tracing["enabled_seconds"] > 0
        # the ratio is noise-dominated on shared runners; CI gates the
        # best interleaved pair at 1.05, here we only sanity-bound it
        assert 0.5 < tracing["overhead_ratio_best"] <= tracing["overhead_ratio"]
        assert tracing["overhead_ratio"] < 2.0

    def test_metrics_overhead_records_activity(self, ci_report):
        metrics = next(
            b for b in ci_report["benchmarks"] if b["name"] == "metrics_overhead"
        )
        assert metrics["counters_recorded"] > 0
        assert metrics["families_recorded"] > 0
        assert metrics["disabled_seconds"] > 0
        assert metrics["enabled_seconds"] > 0
        # CI gates the best interleaved pair at 1.05; sanity-bound only here
        assert 0.5 < metrics["overhead_ratio_best"] <= metrics["overhead_ratio"]
        assert metrics["overhead_ratio"] < 2.0

    def test_report_stamps_git_provenance(self, ci_report):
        # both keys are always present; values are None only outside a checkout
        assert "git_revision" in ci_report
        assert "git_dirty" in ci_report
        if ci_report["git_revision"] is not None:
            assert isinstance(ci_report["git_dirty"], bool)

    def test_scenario_sweep_covers_registry(self, ci_report):
        from repro.fluid import list_scenarios

        sweep = next(
            b for b in ci_report["benchmarks"] if b["name"] == "scenario_sweep"
        )
        names = {r["scenario"].split(":")[0] for r in sweep["scenarios"]}
        assert names == {info.name for info in list_scenarios()}
        assert all(r["seconds"] > 0 for r in sweep["scenarios"])
        import math

        assert all(math.isfinite(r["final_divnorm"]) for r in sweep["scenarios"])

    def test_service_throughput_warm_path_is_cache_served(self, ci_report):
        svc = next(
            b for b in ci_report["benchmarks"] if b["name"] == "service_throughput"
        )
        assert svc["cold_completed"] == svc["params"]["jobs"]
        assert svc["all_warm_cached"]
        assert svc["cold_jobs_per_second"] > 0
        assert svc["warm_jobs_per_second"] > 0
        # cache-served jobs skip simulation entirely; even with service
        # overhead the warm path must not be slower than simulating
        assert svc["cache_speedup"] > 1.0

    def test_scenario_sweep_restricts_to_one(self):
        from repro.benchmark import _bench_scenario_sweep

        sweep = _bench_scenario_sweep(SCALES["smoke"], scenario="dam_break:grid=16")
        assert len(sweep["scenarios"]) == 1
        assert sweep["scenarios"][0]["scenario"] == "dam_break:grid=16"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_bench(scale="huge")

    def test_write_bench(self, ci_report, tmp_path):
        path = write_bench(ci_report, tmp_path / "BENCH_test.json")
        assert json.loads(path.read_text())["scale"] == "ci"


class TestBenchCLI:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys, monkeypatch, ci_report):
        # the CLI wiring and the file it writes, over the module's ci run
        import repro.benchmark

        calls = []

        def fake_run_bench(**kwargs):
            calls.append(kwargs)
            return ci_report

        monkeypatch.setattr(repro.benchmark, "run_bench", fake_run_bench)
        out = tmp_path / "BENCH_ci.json"
        assert main(["bench", "--scale", "ci", "--output", str(out)]) == 0
        assert calls == [{"scale": "ci", "seed": 0, "scenario": None}]
        report = json.loads(out.read_text())
        assert report == json.loads(json.dumps(ci_report))
        assert {b["name"] for b in report["benchmarks"]} == EXPECTED_BENCHMARKS
        assert "speedup" in capsys.readouterr().out
