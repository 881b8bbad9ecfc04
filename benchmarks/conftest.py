"""Shared fixtures for the per-table/per-figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures on a
laptop-scale configuration: the full 7-model x 3-compressor x 13-bound x
6-dataset grid, but on shorter synthetic series with one seed per model.
The whole grid runs as ONE task graph through the runtime executor, so
compression, training, and forecasting jobs are cached individually on
disk under ``.cache`` — repeated runs are incremental, and setting
``REPRO_BENCH_WORKERS=N`` runs the grid on an N-process pool.  Delete the
cache directory for a cold start.
"""

from __future__ import annotations

import os

import pytest

from repro.api import (ApiService, CompressRequest, CompressResponse,
                       GridRequest)
from repro.core import EvaluationConfig
from repro.core.results import ScenarioRecord

BENCH_LENGTH = 3_000
CACHE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, ".cache")


def bench_config() -> EvaluationConfig:
    """The laptop-scale configuration shared by every benchmark."""
    return EvaluationConfig(
        dataset_length=BENCH_LENGTH,
        deep_seeds=1,
        simple_seeds=1,
        eval_stride=24,
        cache_dir=CACHE_DIR,
        max_workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    )


@pytest.fixture(scope="session")
def service() -> ApiService:
    return ApiService(bench_config())


@pytest.fixture(scope="session")
def all_records(service) -> list[ScenarioRecord]:
    """Baseline + scenario records over the whole grid (the expensive part)."""
    records, manifest = service.grid(GridRequest())
    print(f"\n[grid] {manifest.total} jobs, {manifest.cached} cached, "
          f"{manifest.executed} executed in {manifest.wall_seconds:.1f}s")
    return records


@pytest.fixture(scope="session")
def all_sweeps(service) -> dict[str, list[CompressResponse]]:
    """Compression sweeps (TE/CR/segments) for every dataset."""
    config = service.config
    sweeps = {}
    for name in config.datasets:
        responses = service.compress_batch([
            CompressRequest(name, method, error_bound)
            for method in config.compressors
            for error_bound in config.error_bounds])
        sweeps[name] = [response for response in responses
                        if isinstance(response, CompressResponse)]
    return sweeps


def print_header(title: str) -> None:
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}")
