"""The ``stats``/``metrics``/``health`` wire ops: real-socket round trips,
pinned response schemas, and label-cardinality behaviour under hostile
tenant names."""

import asyncio

from repro.farm import JobSpec
from repro.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE, OPENMETRICS_CONTENT_TYPE
from repro.serve import ServiceClient, ServiceServer, SimulationService, TenantQuota


def spec(job_id: str, seed=0, steps=3) -> JobSpec:
    return JobSpec(job_id=job_id, grid_size=16, seed=seed, steps=steps)


async def serve(tmp_path, **service_kwargs):
    defaults = dict(
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
        min_workers=1,
        max_workers=2,
        default_quota=TenantQuota(rate=None, burst=64, max_pending=None),
        metrics=MetricsRegistry(),
    )
    defaults.update(service_kwargs)
    service = SimulationService(**defaults)
    await service.start()
    server = ServiceServer(service, tmp_path / "serve.sock")
    await server.start()
    return service, server


async def shutdown(service, server):
    await server.stop()
    await service.stop(drain=True, timeout=60.0)


class TestStatsWireSchema:
    def test_stats_round_trip_schema_is_pinned(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client.submit(spec("a"))
                    await client.result("a", timeout=60.0)
                    stats = await client.stats()
            finally:
                await shutdown(service, server)
            # the schema clients (and the fleet header) depend on
            assert set(stats) == {"jobs", "admission", "cache", "pool"}
            assert set(stats["jobs"]) == {"total", "by_status", "cached"}
            assert stats["jobs"]["total"] == 1
            assert stats["jobs"]["by_status"]["completed"] == 1
            assert stats["cache"] is not None and "hits" in stats["cache"]
            assert stats["pool"] is not None

        asyncio.run(run())


class TestMetricsWireOp:
    def test_metrics_round_trip_over_the_socket(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                sock = tmp_path / "serve.sock"
                async with await ServiceClient.open(sock) as client:
                    await client.submit(spec("a"), tenant="alpha")
                    await client.result("a", timeout=60.0)
                    # identical spec, fresh id: a cache hit on the second pass
                    await client.submit(spec("b"), tenant="beta")
                    await client.result("b", timeout=60.0)
                    text = await client.metrics()
            finally:
                await shutdown(service, server)
            return text

        text = asyncio.run(run())
        # labeled serve families with tenant/outcome/scenario dimensions
        assert 'repro_serve_submit_total{tenant="alpha",outcome="accepted"} 1' in text
        assert 'repro_serve_submit_total{tenant="beta",outcome="cached"} 1' in text
        assert (
            'repro_serve_cache_requests_total{scenario="smoke_plume",outcome="hit"} 1'
            in text
        )
        assert "repro_serve_submit_to_result_seconds_bucket" in text
        assert 'tenant="alpha"' in text
        # autoscaler gauges and flat counters render on the same page
        assert "# TYPE repro_serve_workers gauge" in text
        assert "repro_serve_cache_hits_total 1" in text
        # worker-side solver families merged home through the pool
        assert "# TYPE repro_solver_iterations histogram" in text

    def test_metrics_response_frame_schema(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    response = await client._request({"op": "metrics"})
            finally:
                await shutdown(service, server)
            return response

        response = asyncio.run(run())
        assert set(response) == {"ok", "content_type", "text"}
        assert response["ok"] is True
        assert response["content_type"] == CONTENT_TYPE
        assert isinstance(response["text"], str)

    def test_metrics_op_negotiates_openmetrics(self, tmp_path):
        """The default page is classic 0.0.4 (exemplar-free — classic
        parsers fail the whole scrape on one); ``openmetrics: true``
        switches the exposition and the advertised content type."""

        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client.submit(spec("a"))
                    await client.result("a", timeout=60.0)
                    classic = await client.metrics()
                    om = await client._request({"op": "metrics", "openmetrics": True})
            finally:
                await shutdown(service, server)
            return classic, om

        classic, om = asyncio.run(run())
        assert "span_id" not in classic
        assert "# EOF" not in classic
        assert om["content_type"] == OPENMETRICS_CONTENT_TYPE
        assert om["text"].splitlines()[-1] == "# EOF"

    def test_health_round_trip_evaluates_slos(self, tmp_path):
        async def run():
            service, server = await serve(tmp_path)
            try:
                async with await ServiceClient.open(tmp_path / "serve.sock") as client:
                    await client.submit(spec("a"))
                    await client.result("a", timeout=60.0)
                    health = await client.health()
            finally:
                await shutdown(service, server)
            return health

        health = asyncio.run(run())
        assert set(health) == {"state", "slos", "recorder"}
        assert health["state"] in ("ok", "warning", "critical", "no_data")
        assert len(health["slos"]) >= 3
        for slo in health["slos"]:
            assert {"name", "objective", "state", "value", "budget", "tiers"} <= set(slo)
        assert "serve_submit_to_result_p99" in health["recorder"]["series"]


class TestTenantCardinality:
    def test_unbounded_tenant_names_fold_to_overflow_not_oom(self, tmp_path):
        """Regression: a client inventing a tenant per request must neither
        crash the submission path nor grow the label space unboundedly."""

        async def run():
            service, server = await serve(tmp_path)
            # tiny cap so the test stays fast; the production default is 256
            service._submit_total.max_series = 6
            service._submit_latency.max_series = 3
            try:
                sock = tmp_path / "serve.sock"
                async with await ServiceClient.open(sock) as client:
                    for i in range(12):
                        job = await client.submit(spec(f"j{i}", seed=i), tenant=f"t{i}")
                        assert job["job_id"] == f"j{i}"
                    for i in range(12):
                        await client.result(f"j{i}", timeout=60.0)
                    text = await client.metrics()
            finally:
                await shutdown(service, server)
            # bounded at the cap plus the single cap-exempt overflow series
            assert len(service._submit_total) <= 7
            assert len(service._submit_latency) <= 4
            return text

        text = asyncio.run(run())
        assert 'repro_serve_submit_total{tenant="_overflow",outcome="accepted"}' in text
        assert 'repro_serve_submit_to_result_seconds_count{tenant="_overflow"}' in text
