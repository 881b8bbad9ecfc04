"""MicroBatcher unit tests: coalescing, ordering, failure degradation."""

import threading
import time

import pytest

from repro.api.errors import ErrorEnvelope
from repro.runtime.manifest import FailureRecord, JobError
from repro.server.batching import MicroBatcher


class Recorder:
    """An execute callable that records every batch it receives."""

    def __init__(self, transform=lambda request: request * 2):
        self.batches = []
        self.transform = transform
        self._lock = threading.Lock()

    def __call__(self, requests):
        with self._lock:
            self.batches.append(list(requests))
        return [self.transform(request) for request in requests]


def test_single_request_resolves():
    batcher = MicroBatcher("t", Recorder(), max_wait_s=0.0)
    try:
        assert batcher.submit(21) == 42
    finally:
        batcher.close()


def test_concurrent_requests_coalesce_into_fewer_batches():
    recorder = Recorder()
    batcher = MicroBatcher("t", recorder, max_batch=64, max_wait_s=0.2)
    results = {}

    def call(i):
        results[i] = batcher.submit(i)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(16)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.close()
    assert results == {i: i * 2 for i in range(16)}
    assert len(recorder.batches) < 16, "no coalescing happened"
    assert max(len(b) for b in recorder.batches) > 1


def test_results_map_positionally():
    batcher = MicroBatcher("t", Recorder(str), max_wait_s=0.1)
    outcomes = []

    def call(i):
        outcomes.append((i, batcher.submit(i)))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.close()
    assert sorted(outcomes) == [(i, str(i)) for i in range(8)]


def test_execute_exception_degrades_whole_batch_to_envelopes():
    def explode(requests):
        raise RuntimeError("kaboom")

    batcher = MicroBatcher("t", explode, max_wait_s=0.0)
    try:
        result = batcher.submit("x")
    finally:
        batcher.close()
    assert isinstance(result, ErrorEnvelope)
    assert result.kind == "internal"
    assert "kaboom" in result.message


def test_job_error_maps_to_its_own_kind_and_key():
    failure = FailureRecord(kind="compress", key="compress-ff",
                            description="compress(...)",
                            error="ValueError('x')", attempts=1)

    def fail_fast(requests):
        raise JobError(failure)

    batcher = MicroBatcher("t", fail_fast, max_wait_s=0.0)
    try:
        result = batcher.submit("x")
    finally:
        batcher.close()
    assert isinstance(result, ErrorEnvelope)
    assert (result.kind, result.key) == ("compress", "compress-ff")


def test_result_count_mismatch_is_surfaced_not_hung():
    batcher = MicroBatcher("t", lambda requests: [], max_wait_s=0.0)
    try:
        result = batcher.submit("x", timeout=5.0)
    finally:
        batcher.close()
    assert isinstance(result, ErrorEnvelope)
    assert "result" in result.message


def test_timeout_returns_structured_envelope():
    release = threading.Event()

    def wedge(requests):
        release.wait(5.0)
        return list(requests)

    batcher = MicroBatcher("t", wedge, max_wait_s=0.0)
    try:
        result = batcher.submit("x", timeout=0.05)
        assert isinstance(result, ErrorEnvelope)
        assert "timed out" in result.message
    finally:
        release.set()
        batcher.close()


def test_close_is_idempotent_and_drains():
    batcher = MicroBatcher("t", Recorder(), max_wait_s=0.0)
    assert batcher.submit(1) == 2
    batcher.close()
    batcher.close()


def test_submit_after_close_is_refused_immediately():
    batcher = MicroBatcher("t", Recorder(), max_wait_s=0.0)
    assert batcher.submit(1) == 2
    batcher.close()
    started = time.monotonic()
    # the old behaviour enqueued into the dead dispatcher and blocked the
    # entire timeout; the refusal must be immediate even with a huge one
    result = batcher.submit(2, timeout=600.0)
    assert time.monotonic() - started < 1.0
    assert isinstance(result, ErrorEnvelope)
    assert result.kind == "overloaded"
    assert "shut down" in result.message


def test_submit_on_never_started_closed_batcher_is_refused():
    batcher = MicroBatcher("t", Recorder(), max_wait_s=0.0)
    batcher.close()  # close before any submit ever started the worker
    result = batcher.submit(1, timeout=600.0)
    assert isinstance(result, ErrorEnvelope)
    assert result.kind == "overloaded"


def test_timeout_envelope_has_timeout_kind():
    release = threading.Event()

    def wedge(requests):
        release.wait(5.0)
        return list(requests)

    batcher = MicroBatcher("t", wedge, max_wait_s=0.0)
    try:
        result = batcher.submit("x", timeout=0.05)
        assert isinstance(result, ErrorEnvelope)
        assert result.kind == "timeout"  # distinct from overloaded/internal
    finally:
        release.set()
        batcher.close()


def test_cancelled_pending_is_never_dispatched():
    entered = threading.Event()
    release = threading.Event()
    recorder = Recorder()

    def gated(requests):
        entered.set()
        release.wait(10.0)
        return recorder(requests)

    batcher = MicroBatcher("t", gated, max_wait_s=0.0)
    try:
        # "a" wedges the dispatcher inside execute
        first = threading.Thread(target=batcher.submit, args=("a",))
        first.start()
        assert entered.wait(5.0)
        # "b" waits in the queue, times out, and is marked cancelled
        result = batcher.submit("b", timeout=0.05)
        assert isinstance(result, ErrorEnvelope)
        assert result.kind == "timeout"
        release.set()
        first.join(timeout=5.0)
        # "c" proves the dispatcher moved on to fresh work
        assert batcher.submit("c", timeout=5.0) == "cc"
    finally:
        release.set()
        batcher.close()
    # the cancelled request never reached the executor
    dispatched = [request for batch in recorder.batches for request in batch]
    assert "b" not in dispatched
    assert "a" in dispatched and "c" in dispatched


def test_bounded_queue_sheds_overflow():
    entered = threading.Event()
    release = threading.Event()

    def gated(requests):
        entered.set()
        release.wait(10.0)
        return list(requests)

    batcher = MicroBatcher("t", gated, max_batch=1, max_wait_s=0.0,
                           max_queue=1)
    waiters = []
    try:
        # first submission occupies the dispatcher inside execute
        waiters.append(threading.Thread(target=batcher.submit, args=("a",),
                                        kwargs={"timeout": 10.0}))
        waiters[-1].start()
        assert entered.wait(5.0)
        # second fills the single queue slot
        waiters.append(threading.Thread(target=batcher.submit, args=("b",),
                                        kwargs={"timeout": 10.0}))
        waiters[-1].start()
        deadline = time.monotonic() + 5.0
        while batcher._queue.qsize() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        # third finds the queue full and is shed, not enqueued
        started = time.monotonic()
        result = batcher.submit("c", timeout=600.0)
        assert time.monotonic() - started < 1.0
        assert isinstance(result, ErrorEnvelope)
        assert result.kind == "overloaded"
        assert "full" in result.message
    finally:
        release.set()
        for waiter in waiters:
            waiter.join(timeout=5.0)
        batcher.close()


def test_max_batch_caps_occupancy():
    recorder = Recorder()
    batcher = MicroBatcher("t", recorder, max_batch=2, max_wait_s=0.2)
    threads = [threading.Thread(target=batcher.submit, args=(i,))
               for i in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.close()
    assert max(len(b) for b in recorder.batches) <= 2
