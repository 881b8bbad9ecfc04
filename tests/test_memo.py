"""The content-keyed memo behind the characteristic and Fourier memos,
and the weighted LRU under it and the cache's memory layer."""

import sys
import threading

import numpy as np
import pytest

from repro.memo import LRU, ContentMemo


def test_a_hit_is_found_by_content_and_params():
    memo = ContentMemo(size=4)
    calls = []

    def compute(array):
        calls.append(array.sum())
        return array * 2

    values = np.arange(10, dtype=np.float64)
    first = memo.get(values, ("a", 1), compute)
    assert memo.get(values.copy(), ("a", 1), compute) is first
    assert len(calls) == 1
    # other params, another shape or one changed value are other keys
    memo.get(values, ("a", 2), compute)
    memo.get(values.reshape(2, 5), ("a", 1), compute)
    changed = values.copy()
    changed[3] += 1e-12
    memo.get(changed, ("a", 1), compute)
    assert len(calls) == 4


def test_the_least_recently_used_value_is_dropped():
    memo = ContentMemo(size=2)
    arrays = [np.full(3, float(k)) for k in range(3)]
    first = memo.get(arrays[0], None, lambda a: a.copy())
    memo.get(arrays[1], None, lambda a: a.copy())
    assert memo.get(arrays[0], None, lambda a: a.copy()) is first  # touched
    memo.get(arrays[2], None, lambda a: a.copy())  # drops arrays[1]
    assert len(memo) == 2
    assert memo.get(arrays[0], None, lambda a: a.copy()) is first
    assert memo.get(arrays[1], None, lambda a: None) is None  # recomputed


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        ContentMemo(size=0)
    with pytest.raises(ValueError):
        LRU(0)


def test_weights_bound_the_lru():
    lru = LRU(10)
    lru.put("a", "A", 4)
    lru.put("b", "B", 4)
    assert lru.get("a") == "A"  # touched: "b" is now the oldest
    lru.put("c", "C", 4)        # 12 > 10 drops "b"
    assert ("a" in lru, "b" in lru, "c" in lru) == (True, False, True)
    assert lru.weight == 8
    lru.put("a", "A2", 1)       # a re-put replaces the weight
    assert lru.weight == 5 and lru.get("a") == "A2"
    lru.put("huge", "H", 11)    # heavier than the budget: dropped at once
    assert "huge" not in lru and lru.weight <= 10
    lru.pop("c")
    lru.pop("missing")
    assert lru.get("c", "default") == "default"
    assert len(lru) == 0 and lru.weight == 0


def test_shared_between_threads():
    """Eight threads share one small memo (more threads than cores, a
    short switch interval): every value handed out is the one computed
    for its key, and the memo never holds more than its size."""
    memo = ContentMemo(size=2)
    arrays = [np.arange(k, k + 50, dtype=np.float64) for k in range(5)]
    failures = []

    def hammer(offset):
        for i in range(300):
            k = (i + offset) % len(arrays)
            value = memo.get(arrays[k], "sum", lambda a: float(a.sum()))
            if value != float(arrays[k].sum()):
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(memo) <= 2


def test_lru_weight_survives_threads():
    """Eight threads put, get and pop weighted values in one small LRU
    (more threads than cores, a short switch interval): a lost update
    would leave the running weight off the stored values' sum."""
    lru = LRU(40)
    failures = []

    def hammer(offset):
        for i in range(400):
            key = (i + offset) % 13
            if i % 7 == 0:
                lru.pop(key)
            else:
                lru.put(key, key, weight=key % 5 + 1)
            value = lru.get(key)
            if value is not None and value != key:
                failures.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    stored = [lru._entries[key][1] for key in list(lru._entries)]
    assert lru.weight == sum(stored) <= lru.capacity
