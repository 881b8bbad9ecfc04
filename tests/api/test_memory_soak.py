"""A long-running service stays flat in memory.

Every cold compress request puts its results into the service's cache.
With a cache directory, the memory layer keeps only the most recent of
them, within ``MEMORY_BYTES``; the files hold the rest.  Every requested
(dataset, length) loads a source into the run context, which keeps one
per registered dataset, so new lengths replace old ones.
"""

import tracemalloc

from repro.api import ApiService, CompressRequest, CompressResponse
from repro.core.config import EvaluationConfig
from repro.datasets.registry import DATASET_NAMES

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


def test_distinct_lengths_leave_the_heap_flat(tmp_path, monkeypatch):
    import repro.core.cache as cache_module

    # no cached value stays in memory: the heap holds only the sources
    monkeypatch.setattr(cache_module, "MEMORY_BYTES", 1)
    service = ApiService(EvaluationConfig(cache_dir=str(tmp_path)))

    def compress(length):
        request = CompressRequest("Wind", "PMC", 0.1, length=length)
        response, = service.compress_batch([request])
        assert isinstance(response, CompressResponse)

    # first-call costs (imports, codec set-up) are paid untraced
    compress(4_999)
    capacity = len(DATASET_NAMES)
    tracemalloc.start()
    try:
        for length in range(5_000, 5_000 + capacity):
            compress(length)
        before = tracemalloc.get_traced_memory()[0]
        for length in range(5_000 + capacity, 5_000 + 3 * capacity):
            compress(length)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each length kept would add about 0.15 MiB (1.86 MiB over 12 new
    # lengths when the run context kept every one)
    assert growth < 0.5 * 2**20, f"heap grew {growth / 2**20:.2f} MiB"


def test_a_cached_compress_value_holds_what_it_is_charged(tmp_path):
    """The memory layer charges each value the bytes of its disk entry,
    so the heap a cold request leaves behind is what the layer counts:
    a value keeps no view into a source the table has since dropped."""
    service = ApiService(EvaluationConfig(cache_dir=str(tmp_path)))
    memory = service.cache._memory

    def compress(length):
        request = CompressRequest("Wind", "PMC", 0.1, part="validation",
                                  length=length)
        response, = service.compress_batch([request])
        assert isinstance(response, CompressResponse)

    compress(19_999)
    capacity = len(DATASET_NAMES)
    tracemalloc.start()
    try:
        for length in range(20_000, 20_000 + capacity):
            compress(length)
        heap, charged = tracemalloc.get_traced_memory()[0], memory.weight
        for length in range(20_000 + capacity, 20_000 + 3 * capacity):
            compress(length)
        heap = tracemalloc.get_traced_memory()[0] - heap
        charged = memory.weight - charged
    finally:
        tracemalloc.stop()
    assert charged > 0
    # 4.6x when each value kept its source's column alive
    assert heap <= 1.25 * charged, (
        f"heap grew {heap / 1024:.1f} KiB for {charged / 1024:.1f} KiB "
        "charged")
