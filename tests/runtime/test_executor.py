"""Scheduler behaviour: caching, single-flight, recovery, parallelism."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.api import ApiService, ForecastRequest, GridRequest
from repro.core import EvaluationConfig
from repro.core.cache import DiskCache
from repro.runtime.backends import make_backend
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec
from repro.runtime.scheduler import Scheduler

CALLS: list[str] = []  # execution log for in-process (serial) runs


@dataclass(frozen=True)
class AddJob(JobSpec):
    """Picklable arithmetic job: value plus the sum of its dependencies."""

    kind: ClassVar[str] = "add"

    name: str
    value: int
    deps: tuple["AddJob", ...] = ()

    def dependencies(self):
        return self.deps

    def run(self, ctx, deps):
        CALLS.append(self.name)
        return self.value + sum(deps[d.key()] for d in self.deps)


def diamond():
    """base feeds left and right, which feed top: a shared dependency."""
    base = AddJob("base", 1)
    left = AddJob("left", 10, (base,))
    right = AddJob("right", 100, (base,))
    top = AddJob("top", 1000, (left, right))
    return base, left, right, top


def run_targets(executor, *jobs):
    graph = TaskGraph()
    for job in jobs:
        graph.add(job)
    return executor.run(graph)


def test_serial_execution_and_results():
    base, left, right, top = diamond()
    values = run_targets(Scheduler(), top)
    assert values[top.key()] == 1000 + 11 + 101
    assert values[base.key()] == 1


def test_single_flight_shared_dependency_runs_once():
    CALLS.clear()
    base, left, right, top = diamond()
    run_targets(Scheduler(), top)
    assert CALLS.count("base") == 1


def test_manifest_counts_cold_run():
    executor = Scheduler()
    _, _, _, top = diamond()
    run_targets(executor, top)
    manifest = executor.last_manifest
    assert manifest.total == 4
    assert manifest.cached == 0
    assert manifest.executed == 4
    assert manifest.phase_executed == {"add": 4}
    assert manifest.phase_total == {"add": 4}
    assert manifest.cache_hit_rate == 0.0


def test_warm_run_serves_everything_from_cache(tmp_path):
    cache = DiskCache(str(tmp_path))
    _, _, _, top = diamond()
    run_targets(Scheduler(cache), top)

    CALLS.clear()
    fresh = Scheduler(DiskCache(str(tmp_path)))  # cold memory, warm disk
    values = run_targets(fresh, top)
    assert values[top.key()] == 1112
    assert CALLS == []
    manifest = fresh.last_manifest
    # accounting covers the planned subtree only: the cached target stops
    # the traversal, so its three dependencies are never even probed
    assert manifest.cached == manifest.total == 1
    assert manifest.executed == 0
    assert manifest.cache_hit_rate == 1.0


def test_manifest_restricted_to_requested_targets(tmp_path):
    # a subset target must not probe (or count) the rest of the graph
    base, left, right, top = diamond()
    graph = TaskGraph()
    for job in (base, left, right, top):
        graph.add(job)
    executor = Scheduler(DiskCache(str(tmp_path)))
    executor.run(graph, targets=(left.key(),))
    manifest = executor.last_manifest
    assert manifest.total == 2  # left + base, not right/top
    assert manifest.cached == 0
    assert manifest.executed == 2
    assert manifest.phase_total == {"add": 2}

    # warm subset rerun: only the (cached) target itself is probed
    fresh = Scheduler(DiskCache(str(tmp_path)))
    fresh.run(graph, targets=(left.key(),))
    assert fresh.last_manifest.total == 1
    assert fresh.last_manifest.cached == 1


def test_cached_targets_prune_their_dependencies(tmp_path):
    cache = DiskCache(str(tmp_path))
    _, _, _, top = diamond()
    run_targets(Scheduler(cache), top)

    CALLS.clear()
    fresh = Scheduler(DiskCache(str(tmp_path)))
    values = run_targets(fresh, top)
    # the target came from cache, so no dependency was even loaded
    assert set(values) == {top.key()}
    assert CALLS == []


def test_corrupt_cache_entry_recovers(tmp_path):
    cache = DiskCache(str(tmp_path))
    base, left, right, top = diamond()
    run_targets(Scheduler(cache), top)

    with open(cache._path(top.key()), "wb") as handle:
        handle.write(b"truncated garbage")

    CALLS.clear()
    fresh = Scheduler(DiskCache(str(tmp_path)))
    values = run_targets(fresh, top)
    assert values[top.key()] == 1112
    assert CALLS == ["top"]  # dependencies still came from cache
    manifest = fresh.last_manifest
    assert manifest.executed == 1
    # probed: top (revoked when found corrupt) + left + right; base stays
    # pruned behind its cached consumers and is never touched
    assert manifest.total == 3
    assert manifest.cached == 2


def test_memory_cache_fallback_single_flights_across_runs():
    executor = Scheduler()  # in-memory DiskCache(None)
    _, _, _, top = diamond()
    run_targets(executor, top)
    CALLS.clear()
    run_targets(executor, top)
    assert CALLS == []
    assert isinstance(executor.cache, DiskCache)
    assert executor.cache.directory is None


def test_parallel_matches_serial_on_stub_graph(tmp_path):
    base, left, right, top = diamond()
    serial = run_targets(Scheduler(DiskCache(str(tmp_path / "s"))), top)
    parallel = run_targets(
        Scheduler(DiskCache(str(tmp_path / "p")),
                  backend=make_backend(None, max_workers=2)), top)
    assert serial[top.key()] == parallel[top.key()]


def _tiny_config(cache_dir, workers):
    return EvaluationConfig(
        datasets=("ETTm1",),
        models=("Arima",),
        compressors=("PMC", "SWING"),
        error_bounds=(0.1, 0.4),
        dataset_length=1_200,
        input_length=48,
        horizon=12,
        eval_stride=12,
        deep_seeds=1,
        simple_seeds=1,
        cache_dir=cache_dir,
        max_workers=workers,
    )


def test_serial_and_parallel_grids_are_byte_identical(tmp_path):
    serial = ApiService(_tiny_config(str(tmp_path / "serial"), 1))
    parallel = ApiService(_tiny_config(str(tmp_path / "parallel"), 2))
    records_serial, _ = serial.grid(GridRequest())
    records_parallel, _ = parallel.grid(GridRequest())
    assert records_serial == records_parallel  # dataclass equality is exact
    assert parallel.last_manifest.executed == parallel.last_manifest.total


def test_evaluation_reports_manifest(tmp_path):
    service = ApiService(_tiny_config(str(tmp_path), 1))
    assert service.last_manifest is None
    baseline = [ForecastRequest("Arima", "ETTm1", seed=0)]
    service.forecast_batch(baseline)
    manifest = service.last_manifest
    assert manifest.total == 2  # train + forecast
    assert manifest.executed == 2

    service.forecast_batch(baseline)
    # warm rerun plans only the cached forecast target (train stays pruned)
    assert service.last_manifest.cached == service.last_manifest.total == 1
    assert service.last_manifest.executed == 0
