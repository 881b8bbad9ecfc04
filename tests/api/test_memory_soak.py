"""A long-running service stays flat in memory.

Every cold compress request puts its results into the service's cache.
With a cache directory, the memory layer keeps only the most recent of
them, within ``MEMORY_BYTES``; the files hold the rest.
"""

import tracemalloc

from repro.api import ApiService, CompressRequest, CompressResponse
from repro.core.config import EvaluationConfig

#: cold requests before the heap is measured, and after it
WARM_UP, SOAK = 100, 500


def _compress(service, index):
    # a never-seen bound per request, so every one executes and puts
    request = CompressRequest("ETTm1", "PMC", 0.01 + index * 1e-4,
                              length=1_000)
    response, = service.compress_batch([request])
    assert isinstance(response, CompressResponse)


def test_cold_requests_leave_the_heap_flat(tmp_path, monkeypatch):
    import repro.core.cache as cache_module

    # raising=False: a cache without the budget fails on the heap, not here
    monkeypatch.setattr(cache_module, "MEMORY_BYTES", 2**20, raising=False)
    service = ApiService(EvaluationConfig(cache_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        for index in range(WARM_UP):
            _compress(service, index)
        before = tracemalloc.get_traced_memory()[0]
        for index in range(WARM_UP, WARM_UP + SOAK):
            _compress(service, index)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 2 * 2**20, f"heap grew {growth / 2**20:.2f} MiB"
