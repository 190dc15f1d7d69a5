"""Pin the registry keys the benchmark's per-layer report reads.

``perfbench/run.py`` turns registry timers, counters and one labeled family
into per-layer metrics by name, matching a key under any scope (a key equal
to the name or ending in ``/<name>``).  A renamed key would silently read 0
there, so each one is asserted non-zero here on the path that writes it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import AdaptiveController, QlossKNNPredictor, SelectedModel
from repro.data import InputProblem
from repro.farm import JobSpec
from repro.fluid import FluidSimulator, PCGSolver
from repro.metrics import MetricsRegistry
from repro.models import TrainedModel, tompson_arch
from repro.serve import QueueFullError, SimulationService, TenantQuota


def _matches(key: str, name: str) -> bool:
    return key == name or key.endswith("/" + name)


def counter(reg: MetricsRegistry, name: str) -> float:
    return sum(v for k, v in reg.counters.items() if _matches(k, name))


def timer_total(reg: MetricsRegistry, name: str) -> float:
    return sum(t.total for k, t in reg.timers.items() if _matches(k, name))


def test_pcg_simulation_keys():
    reg = MetricsRegistry()
    grid, source = InputProblem(16, 0).materialize()
    FluidSimulator(grid, PCGSolver(metrics=reg), source, metrics=reg).run(3)
    for name in ("sim/step", "sim/advection", "sim/projection/solve"):
        assert timer_total(reg, name) > 0, name
    for name in ("solver/pcg/iterations", "cache/mic0/miss", "projection/by_solver/pcg"):
        assert counter(reg, name) > 0, name


def test_adaptive_controller_counts_checks():
    arch = tompson_arch(4)
    arch.name = "m"
    model = TrainedModel(spec=arch, network=arch.build(rng=0))
    knn = QlossKNNPredictor(k=2)
    knn.add_database("m", [(0.0, 0.01), (1e12, 0.01)])
    reg = MetricsRegistry()
    ctl = AdaptiveController(
        [SelectedModel(model=model, success_prob=0.9, model_seconds=1.0, expected_seconds=1.0)],
        knn,
        0.01,
        16,
        metrics=reg,
    )
    grid, source = InputProblem(16, 0).materialize()
    FluidSimulator(grid, ctl.initial_solver(), source, controller=ctl, metrics=reg).run(16)
    assert counter(reg, "adaptive/checks") > 0


def test_service_keys(tmp_path):
    reg = MetricsRegistry()
    service = SimulationService(
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
        min_workers=1,
        max_workers=1,
        default_quota=TenantQuota(rate=None, max_pending=1),
        metrics=reg,
    )

    async def run():
        await service.start()
        service.submit(JobSpec(job_id="a", grid_size=16, steps=2, checkpoint_every=1))
        with pytest.raises(QueueFullError):  # "a" still holds the one pending slot
            service.submit(JobSpec(job_id="b", grid_size=16, steps=2, seed=1))
        assert (await service.result("a", timeout=120.0)).ok
        assert await service.stop(drain=True, timeout=120.0)

    asyncio.run(run())
    assert counter(reg, "serve/rejected") > 0
    assert counter(reg, "farm/checkpoints") > 0
    stat = reg.families.get("farm_queue_wait_seconds").stat()
    assert stat is not None and stat.count > 0
