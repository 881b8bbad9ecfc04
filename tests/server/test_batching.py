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


class Held(Recorder):
    """A Recorder whose batches wait inside ``execute`` until released.

    Holding the first batch lets a test queue submissions behind it: the
    dispatcher takes every one of them as soon as the held batch returns,
    so coalescing is driven by the hold, never by timing.
    """

    def __init__(self, transform=lambda request: request * 2):
        super().__init__(transform)
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, requests):
        self.entered.set()
        self.release.wait(10.0)
        return super().__call__(requests)


def _wait_for_depth(batcher, depth):
    deadline = time.monotonic() + 5.0
    while batcher._queue.qsize() < depth and time.monotonic() < deadline:
        time.sleep(0.005)
    assert batcher._queue.qsize() == depth


def _join_all(threads):
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)


def _submit_behind_held_batch(batcher, held, requests):
    """Submit ``requests[0]`` alone, queue the rest while its batch is held.

    Returns ``{request: result}`` once every submission resolved.
    """
    results = {}

    def call(request):
        results[request] = batcher.submit(request)

    threads = [threading.Thread(target=call, args=(request,))
               for request in requests]
    try:
        threads[0].start()
        # an idle batcher runs a lone request at once: it reaches execute
        # before any second submission exists
        assert held.entered.wait(5.0)
        assert batcher._queue.qsize() == 0
        for thread in threads[1:]:
            thread.start()
        _wait_for_depth(batcher, len(requests) - 1)
    finally:
        held.release.set()
    _join_all(threads)
    return results


def test_single_request_resolves():
    batcher = MicroBatcher("t", Recorder())
    try:
        assert batcher.submit(21) == 42
    finally:
        batcher.close()


def test_concurrent_requests_coalesce_into_fewer_batches():
    held = Held()
    batcher = MicroBatcher("t", held, max_batch=64)
    try:
        results = _submit_behind_held_batch(batcher, held, list(range(16)))
    finally:
        batcher.close()
    assert results == {i: i * 2 for i in range(16)}
    assert len(held.batches) < 16, "no coalescing happened"
    assert max(len(b) for b in held.batches) > 1


def test_results_map_positionally():
    held = Held(str)
    batcher = MicroBatcher("t", held)
    try:
        results = _submit_behind_held_batch(batcher, held, list(range(8)))
    finally:
        batcher.close()
    assert sorted(results.items()) == [(i, str(i)) for i in range(8)]
    assert max(len(b) for b in held.batches) > 1


@pytest.mark.parametrize("max_batch, queued, sizes", [
    (64, 5, [5]),
    (2, 5, [2, 2, 1]),
])
def test_idle_dispatch_runs_lone_request_then_queued_ones_next(
        max_batch, queued, sizes):
    held = Held()
    batcher = MicroBatcher("t", held, max_batch=max_batch)
    try:
        # the helper checks that -1 reaches execute with nothing queued
        _submit_behind_held_batch(batcher, held, [-1, *range(queued)])
    finally:
        batcher.close()
    # everything queued while that batch ran forms the next batch, split
    # only by the max_batch cap (ceil(queued / max_batch) batches)
    assert held.batches[0] == [-1]
    assert [len(batch) for batch in held.batches[1:]] == sizes
    assert sorted(r for batch in held.batches[1:] for r in batch) == list(
        range(queued))


def test_execute_exception_degrades_whole_batch_to_envelopes():
    def explode(requests):
        raise RuntimeError("kaboom")

    batcher = MicroBatcher("t", explode)
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

    batcher = MicroBatcher("t", fail_fast)
    try:
        result = batcher.submit("x")
    finally:
        batcher.close()
    assert isinstance(result, ErrorEnvelope)
    assert (result.kind, result.key) == ("compress", "compress-ff")


def test_result_count_mismatch_is_surfaced_not_hung():
    batcher = MicroBatcher("t", lambda requests: [])
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

    batcher = MicroBatcher("t", wedge)
    try:
        result = batcher.submit("x", timeout=0.05)
        assert isinstance(result, ErrorEnvelope)
        assert "timed out" in result.message
    finally:
        release.set()
        batcher.close()


def test_close_is_idempotent_and_drains():
    batcher = MicroBatcher("t", Recorder())
    assert batcher.submit(1) == 2
    batcher.close()
    batcher.close()


def test_submit_after_close_is_refused_immediately():
    batcher = MicroBatcher("t", Recorder())
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
    batcher = MicroBatcher("t", Recorder())
    batcher.close()  # close before any submit ever started the worker
    result = batcher.submit(1, timeout=600.0)
    assert isinstance(result, ErrorEnvelope)
    assert result.kind == "overloaded"


def test_timeout_envelope_has_timeout_kind():
    release = threading.Event()

    def wedge(requests):
        release.wait(5.0)
        return list(requests)

    batcher = MicroBatcher("t", wedge)
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

    batcher = MicroBatcher("t", gated)
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

    batcher = MicroBatcher("t", gated, max_batch=1, max_queue=1)
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
    held = Held()
    batcher = MicroBatcher("t", held, max_batch=2)
    try:
        _submit_behind_held_batch(batcher, held, list(range(6)))
    finally:
        batcher.close()
    assert max(len(b) for b in held.batches) <= 2


def test_close_drains_requests_queued_behind_a_running_batch():
    held = Held()
    batcher = MicroBatcher("t", held)
    results = {}

    def call(request):
        results[request] = batcher.submit(request, timeout=10.0)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
    closer = threading.Thread(target=batcher.close)
    try:
        threads[0].start()
        assert held.entered.wait(5.0)
        for thread in threads[1:]:
            thread.start()
        _wait_for_depth(batcher, 2)
        # close() queues the stop sentinel behind the two waiters; the
        # dispatcher takes it with them and re-arms it for after the batch
        closer.start()
        _wait_for_depth(batcher, 3)
    finally:
        held.release.set()
    _join_all([*threads, closer])
    assert results == {0: 0, 1: 2, 2: 4}
    assert held.batches == [[0], [1, 2]]
    assert not batcher._worker.is_alive()
