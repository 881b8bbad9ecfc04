"""Tests for the disk cache."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.core import DiskCache
from repro.core.cache import MISSING


def _raise_value_error():
    raise ValueError("corrupt payload")


def _raise_index_error():
    raise IndexError("corrupt payload")


class _Exploding:
    """Pickles fine, but raises the configured error when loaded."""

    def __init__(self, raiser):
        self.raiser = raiser

    def __reduce__(self):
        return (self.raiser, ())


def test_memory_layer_avoids_recompute(tmp_path):
    cache = DiskCache(str(tmp_path))
    value = [42]
    cache.put("k", value)
    assert cache.get("k") is value  # the object put, not a reread copy


def test_disk_layer_survives_new_instance(tmp_path):
    DiskCache(str(tmp_path)).put("k", {"a": np.arange(3)})
    value = DiskCache(str(tmp_path)).get("k", MISSING)
    assert value is not MISSING
    assert np.array_equal(value["a"], np.arange(3))


def test_none_directory_is_memory_only():
    cache = DiskCache(None)
    assert cache.put("k", 7) == 0
    assert cache.get("k") == 7
    assert DiskCache(None).get("k", MISSING) is MISSING


def test_corrupt_entry_recomputed(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("k", 1)
    path = cache._path("k")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    fresh = DiskCache(str(tmp_path))
    assert fresh.get("k", MISSING) is MISSING
    assert not os.path.exists(path)  # revoked, so the recompute rewrites it


def test_distinct_keys_do_not_collide(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("a", 1)
    cache.put("b", 2)
    fresh = DiskCache(str(tmp_path))
    assert (fresh.get("a"), fresh.get("b")) == (1, 2)


def test_get_put_contains_primitives(tmp_path):
    cache = DiskCache(str(tmp_path))
    assert not cache.contains("k")
    assert cache.get("k") is None
    assert cache.get("k", MISSING) is MISSING
    cache.put("k", {"x": 3})
    assert cache.contains("k")
    assert cache.get("k") == {"x": 3}
    # a fresh instance sees the disk entry without deserializing on probe
    assert DiskCache(str(tmp_path)).contains("k")


def test_cached_none_is_distinguishable_from_miss(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("k", None)
    assert cache.contains("k")
    assert cache.get("k", MISSING) is None


def test_entry_raising_value_error_recomputed(tmp_path):
    # a pickled column (a trained model) that raises when loaded
    DiskCache(str(tmp_path)).put("k", _Exploding(_raise_value_error))
    cache = DiskCache(str(tmp_path))
    assert cache.get("k", MISSING) is MISSING
    cache.put("k", 41)
    # the corrupt file was removed and replaced by the recomputed value
    assert DiskCache(str(tmp_path)).get("k") == 41


def test_entry_raising_index_error_recomputed(tmp_path):
    DiskCache(str(tmp_path)).put("k", _Exploding(_raise_index_error))
    assert DiskCache(str(tmp_path)).get("k", MISSING) is MISSING


def test_entry_referencing_removed_module_recomputed(tmp_path, monkeypatch):
    import repro.core.cache as cache_module

    # a stale pickled column whose global no longer exists raises
    # ImportError
    with monkeypatch.context() as patch:
        patch.setattr(cache_module.pickle, "dumps",
                      lambda value: b"cno_such_repro_module\nMissingClass\n.")
        DiskCache(str(tmp_path)).put("k", object())
    assert DiskCache(str(tmp_path)).get("k", MISSING) is MISSING


def test_truncated_pickle_recomputed(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("k", list(range(100)))
    path = cache._path("k")
    with open(path, "rb") as handle:
        payload = handle.read()
    with open(path, "wb") as handle:
        handle.write(payload[:len(payload) // 2])
    fresh = DiskCache(str(tmp_path))
    assert fresh.get("k", MISSING) is MISSING


def test_corrupt_removal_race_is_suppressed(tmp_path, monkeypatch):
    """A concurrent process may delete the corrupt file first."""
    import repro.core.cache as cache_module

    cache = DiskCache(str(tmp_path))
    with open(cache._path("k"), "wb") as handle:
        handle.write(b"not a pickle")

    real_remove = os.remove

    def racing_remove(path):
        real_remove(path)  # the other process wins the race ...
        raise FileNotFoundError(path)  # ... and ours fails

    monkeypatch.setattr(cache_module.os, "remove", racing_remove)
    assert cache.get("k", MISSING) is MISSING


def _cache_race_worker(directory, entries, iterations):
    """Hammer one shared cache directory with overlapping put/get."""
    cache = DiskCache(directory)
    for _ in range(iterations):
        for key, expected in entries:
            cache.put(key, expected)
            value = cache.get(key, MISSING)
            # the value for a key never varies, so any visible state is
            # either absent or exactly the expected payload
            assert value == expected, f"{key}: read {value!r}"


def test_concurrent_processes_share_one_cache_dir(tmp_path):
    """Queue workers and the scheduler all write the same DiskCache; the
    atomic tmp-then-rename protocol must never expose partial entries."""
    entries = [(f"key-{i}", {"i": i, "payload": list(range(i * 10))})
               for i in range(6)]
    processes = [multiprocessing.Process(
        target=_cache_race_worker, args=(str(tmp_path), entries, 25))
        for _ in range(4)]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert [process.exitcode for process in processes] == [0] * 4

    fresh = DiskCache(str(tmp_path))
    for key, expected in entries:
        assert fresh.get(key) == expected
    assert not [name for name in os.listdir(tmp_path)
                if name.endswith(".tmp")]


def test_failed_put_leaves_no_temporary_file(tmp_path):
    """An unpicklable value must not leave a stray .tmp behind."""
    cache = DiskCache(str(tmp_path))
    cache.put("good", 1)
    with pytest.raises(Exception):
        cache.put("bad", lambda: None)  # lambdas cannot be pickled
    assert not [name for name in os.listdir(tmp_path)
                if name.endswith(".tmp")]
    # the existing entry is untouched
    assert DiskCache(str(tmp_path)).get("good") == 1


# -- columnar zero-copy format ------------------------------------------------


def _result_value(length=512):
    from repro.compression.base import CompressionResult
    from repro.datasets.timeseries import TimeSeries

    series = TimeSeries(np.arange(length, dtype=np.float64), start=7,
                        interval=30, name="col")
    return CompressionResult("PMC", 0.1, series, b"gzipped", 3)


def _mmap_backed(array):
    base = array
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return not isinstance(base, np.ndarray)  # an mmap object, not an array


def test_array_payloads_served_without_pickle(tmp_path, monkeypatch):
    """The zero-copy contract: a cached CompressionResult (arrays, bytes,
    scalars) must load with no ``pickle.loads`` call anywhere on the read
    path."""
    import repro.core.cache as cache_module

    DiskCache(str(tmp_path)).put("k", _result_value())

    def poisoned(*args, **kwargs):
        raise AssertionError("pickle.loads on the zero-copy read path")

    monkeypatch.setattr(cache_module.pickle, "loads", poisoned)
    value = DiskCache(str(tmp_path)).get("k")
    assert value.method == "PMC"
    assert value.compressed == b"gzipped"
    assert value.decompressed.start == 7 and value.decompressed.name == "col"
    assert value.decompressed.values[5] == 5.0


def test_cached_arrays_are_memmap_views(tmp_path):
    DiskCache(str(tmp_path)).put("k", _result_value())
    value = DiskCache(str(tmp_path)).get("k")
    assert _mmap_backed(value.decompressed.values)
    assert not value.decompressed.values.flags.writeable
    assert np.array_equal(value.decompressed.values,
                          np.arange(512, dtype=np.float64))


def test_nested_containers_roundtrip(tmp_path):
    value = {"records": [_result_value(16)], "grid": (1, 2.5, None, "x"),
             "flags": {"nested": True}}
    DiskCache(str(tmp_path)).put("k", value)
    loaded = DiskCache(str(tmp_path)).get("k")
    assert loaded["grid"] == (1, 2.5, None, "x")
    assert loaded["flags"] == {"nested": True}
    assert loaded["records"][0].num_segments == 3


def test_numpy_scalars_keep_their_type(tmp_path):
    DiskCache(str(tmp_path)).put("k", {"i": np.int64(7), "f": np.float32(1.5)})
    loaded = DiskCache(str(tmp_path)).get("k")
    assert type(loaded["i"]) is np.int64 and loaded["i"] == 7
    assert type(loaded["f"]) is np.float32 and loaded["f"] == np.float32(1.5)


def test_planted_pickle_is_recomputed_not_loaded(tmp_path, monkeypatch):
    """A pickle file in the cache directory is a corrupt entry: revoked
    without being unpickled, so the caller recomputes it."""
    import repro.core.cache as cache_module

    cache = DiskCache(str(tmp_path))
    path = cache._path("k")
    with open(path, "wb") as handle:
        pickle.dump({"planted": np.arange(4)}, handle)

    def poisoned(*args, **kwargs):
        raise AssertionError("a planted file reached pickle")

    monkeypatch.setattr(cache_module.pickle, "load", poisoned)
    monkeypatch.setattr(cache_module.pickle, "loads", poisoned)
    assert cache.get("k", MISSING) is MISSING
    assert not os.path.exists(path)
    cache.put("k", "recomputed")
    assert DiskCache(str(tmp_path)).get("k") == "recomputed"


def test_unknown_format_version_recomputed(tmp_path):
    """A future-format entry is treated as corrupt, not misparsed."""
    import json
    import struct

    from repro.core.cache import _MAGIC

    cache = DiskCache(str(tmp_path))
    header = json.dumps({"version": 99, "tree": {"s": 1}, "columns": []})
    with open(cache._path("k"), "wb") as handle:
        handle.write(_MAGIC + struct.pack("<Q", len(header))
                     + header.encode())
    assert cache.get("k", MISSING) is MISSING
    cache.put("k", "recomputed")
    assert DiskCache(str(tmp_path)).get("k") == "recomputed"


def _put_pre_change_entry(cache, key, series):
    """Write ``key`` as a compress entry carrying the field set a
    CompressionResult had before ``original`` and ``payload`` went."""
    import dataclasses

    import repro.core.cache as cache_module

    @dataclasses.dataclass(frozen=True)
    class CompressionResult:
        method: str
        error_bound: float
        original: object
        decompressed: object
        payload: bytes
        compressed: bytes
        num_segments: int

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cache_module._ADAPTED, "CompressionResult",
                      CompressionResult)
        cache.put(key, CompressionResult("PMC", 0.1, series, series,
                                         b"payload", b"gzipped", 3))


def test_entry_with_stale_fields_is_revoked_not_raised(tmp_path):
    """A dataclass node whose fields its class no longer has is a stale
    entry: revoked and recomputed, not a ``TypeError`` out of get."""
    _put_pre_change_entry(DiskCache(str(tmp_path)), "k",
                          _result_value().decompressed)
    cache = DiskCache(str(tmp_path))
    assert cache.get("k", MISSING) is MISSING
    assert not os.path.exists(cache._path("k"))
    cache.put("k", _result_value())
    assert DiskCache(str(tmp_path)).get("k").num_segments == 3


def test_entry_with_unknown_dtype_is_revoked_not_raised(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("k", _result_value())
    with open(cache._path("k"), "rb") as handle:
        data = handle.read()
    assert data.count(b'"<f8"') == 1
    with open(cache._path("k"), "wb") as handle:
        handle.write(data.replace(b'"<f8"', b'"zz8"'))
    assert DiskCache(str(tmp_path)).get("k", MISSING) is MISSING


def test_scheduler_recomputes_a_compress_entry_with_stale_fields(tmp_path):
    """A compress entry written before ``original`` and ``payload`` left
    CompressionResult executes again instead of failing the run."""
    import dataclasses

    from repro.runtime.graph import TaskGraph
    from repro.runtime.jobs import CompressJob
    from repro.runtime.scheduler import Scheduler

    job = CompressJob("ETTm1", 600, "PMC", 0.1)
    _put_pre_change_entry(DiskCache(str(tmp_path)), job.key(),
                          _result_value(600).decompressed)
    scheduler = Scheduler(DiskCache(str(tmp_path)))
    graph = TaskGraph()
    graph.add(job)
    value = scheduler.run(graph)[job.key()]
    assert scheduler.last_manifest.executed == 1
    assert [f.name for f in dataclasses.fields(value)] == [
        "method", "error_bound", "decompressed", "compressed",
        "num_segments"]
    reread = DiskCache(str(tmp_path)).get(job.key())
    assert reread.compressed == value.compressed


def test_truncated_columnar_entry_recomputed(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("k", _result_value())
    path = cache._path("k")
    with open(path, "rb") as handle:
        payload = handle.read()
    for cut in (4, 20, len(payload) - 100):
        with open(path, "wb") as handle:
            handle.write(payload[:cut])
        fresh = DiskCache(str(tmp_path))
        assert fresh.get("k", MISSING) is MISSING
        cache.put("k", _result_value())  # restore for the next cut


def test_memory_hit_touches_no_filesystem(tmp_path, monkeypatch):
    """A warm get must return before any path/stat/open work."""
    import repro.core.cache as cache_module

    cache = DiskCache(str(tmp_path))
    cache.put("k", 42)

    def exploding(*args, **kwargs):
        raise AssertionError("filesystem access on a memory hit")

    monkeypatch.setattr(cache_module.os.path, "exists", exploding)
    monkeypatch.setattr(cache_module.hashlib, "sha1", exploding)
    assert cache.get("k") == 42


def test_bytes_read_metric_counts_disk_reads(tmp_path):
    from repro.obs import metrics

    cache = DiskCache(str(tmp_path))
    cache.put("k", _result_value())
    size = os.path.getsize(cache._path("k"))
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        fresh = DiskCache(str(tmp_path))
        fresh.get("k")   # disk read
        fresh.get("k")   # a disk hit is not kept: read again
        assert registry.counters["cache.bytes_read"] == 2 * size
        assert registry.counters["cache.hit_disk"] == 2
        assert "cache.hit_memory" not in registry.counters
        cache.get("k")   # the value this process put: a memory hit
        assert registry.counters["cache.hit_memory"] == 1
    finally:
        metrics.disable()


def _mmap_reader_worker(directory, queue):
    cache = DiskCache(directory)
    value = cache.get("shared")
    queue.put((_mmap_backed(value.decompressed.values),
               float(value.decompressed.values.sum())))


def test_cross_process_reads_are_memmap_backed(tmp_path):
    """Another process (a queue worker) reads the same entry as a mapped
    view over the shared file, not a deserialized copy."""
    DiskCache(str(tmp_path)).put("shared", _result_value(256))
    queue = multiprocessing.Queue()
    process = multiprocessing.Process(target=_mmap_reader_worker,
                                      args=(str(tmp_path), queue))
    process.start()
    mapped, total = queue.get(timeout=60)
    process.join(timeout=60)
    assert process.exitcode == 0
    assert mapped
    assert total == float(np.arange(256).sum())


# -- the bounded memory layer --------------------------------------------------


def test_memory_layer_drops_least_recently_used_past_its_budget(
        tmp_path, monkeypatch):
    import repro.core.cache as cache_module

    cache = DiskCache(str(tmp_path))
    entry = cache.put("probe", np.zeros(1000))
    cache.remove("probe")
    monkeypatch.setattr(cache_module, "MEMORY_BYTES", 2 * entry)
    cache = DiskCache(str(tmp_path))
    values = {key: np.full(1000, float(n)) for n, key in enumerate("abc")}
    cache.put("a", values["a"])
    cache.put("b", values["b"])
    assert cache.get("a") is values["a"]  # a hit makes "a" the most recent
    cache.put("c", values["c"])           # so "b" is dropped
    assert cache.get("a") is values["a"]
    assert cache.get("c") is values["c"]
    dropped = cache.get("b")              # read back from disk instead
    assert dropped is not values["b"]
    assert np.array_equal(dropped, values["b"])
    assert cache._memory.weight <= 2 * entry


def test_memory_only_cache_never_drops_a_value(monkeypatch):
    import repro.core.cache as cache_module

    monkeypatch.setattr(cache_module, "MEMORY_BYTES", 1)
    cache = DiskCache(None)
    for n in range(50):
        cache.put(f"k{n}", np.full(1000, float(n)))
    assert all(cache.get(f"k{n}")[0] == n for n in range(50))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc/self/fd")
def test_disk_hits_leave_no_descriptor_open(tmp_path):
    """A mapped value holds a file descriptor, so a disk hit must not be
    kept: a daemon reading a full cache directory would run out."""
    writer = DiskCache(str(tmp_path))
    for n in range(120):
        writer.put(f"k{n}", _result_value(64))
    fresh = DiskCache(str(tmp_path))
    before = _open_fds()
    for n in range(120):
        assert fresh.get(f"k{n}").decompressed.values[3] == 3.0
    assert _open_fds() == before
