"""Cross-backend guarantees: identical results, worker-loss recovery,
portable deadlines, and the backend registry."""

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.core.cache import DiskCache
from repro.runtime.backends import make_backend
from repro.runtime.backends.pool import PoolBackend
from repro.runtime.backends.queue import QueueBackend
from repro.runtime.backends.serial import SerialBackend
from repro.runtime.deadline import JobTimeoutError, call_with_deadline
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec
from repro.runtime.scheduler import Scheduler

BACKENDS = ("serial", "pool", "queue")


@dataclass(frozen=True)
class AddJob(JobSpec):
    """Picklable arithmetic job usable from forked worker processes."""

    kind: ClassVar[str] = "add"

    name: str
    value: int
    deps: tuple["AddJob", ...] = ()

    def dependencies(self):
        return self.deps

    def run(self, ctx, deps):
        return self.value + sum(deps[d.key()] for d in self.deps)


def diamond():
    base = AddJob("base", 1)
    left = AddJob("left", 10, (base,))
    right = AddJob("right", 100, (base,))
    top = AddJob("top", 1000, (left, right))
    return base, left, right, top


def run_diamond(cache_dir, backend, **kwargs):
    _, _, _, top = diamond()
    graph = TaskGraph()
    graph.add(top)
    executor = Scheduler(DiskCache(str(cache_dir)),
                         backend=make_backend(backend, max_workers=2),
                         **kwargs)
    values = executor.run(graph)
    return values, executor.last_manifest


# -- registry ------------------------------------------------------------------


def test_make_backend_resolves_names():
    assert isinstance(make_backend("serial"), SerialBackend)
    assert isinstance(make_backend("pool", max_workers=3), PoolBackend)
    assert isinstance(make_backend("queue", max_workers=3), QueueBackend)


def test_make_backend_auto_picks_by_worker_count():
    assert isinstance(make_backend("auto", max_workers=1), SerialBackend)
    assert isinstance(make_backend("auto", max_workers=4), PoolBackend)
    assert isinstance(make_backend(None, max_workers=1), SerialBackend)


def test_make_backend_passes_instances_through():
    backend = SerialBackend()
    assert make_backend(backend) is backend


def test_make_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown"):
        make_backend("carrier-pigeon")


def test_queue_backend_requires_a_disk_cache():
    _, _, _, top = diamond()
    graph = TaskGraph()
    graph.add(top)
    executor = Scheduler(DiskCache(None),
                         backend=make_backend("queue", max_workers=2))
    with pytest.raises(ValueError, match="DiskCache"):
        executor.run(graph)


# -- identical results across backends -----------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_computes_identical_values(tmp_path, backend):
    values, manifest = run_diamond(tmp_path / backend, backend)
    base, left, right, top = diamond()
    assert values[top.key()] == 1112
    assert manifest.backend == backend
    assert manifest.executed == manifest.total == 4
    assert not manifest.failures


@pytest.mark.parametrize("backend", ("pool", "queue"))
def test_concurrent_backends_match_serial_manifest_accounting(tmp_path,
                                                              backend):
    serial_values, serial_manifest = run_diamond(tmp_path / "serial", "serial")
    values, manifest = run_diamond(tmp_path / backend, backend)
    assert values == serial_values
    assert manifest.total == serial_manifest.total
    assert manifest.executed == serial_manifest.executed
    assert manifest.phase_total == serial_manifest.phase_total


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_rerun_is_fully_cached_on_every_backend(tmp_path, backend):
    run_diamond(tmp_path / backend, backend)
    values, manifest = run_diamond(tmp_path / backend, backend)
    _, _, _, top = diamond()
    assert values[top.key()] == 1112
    assert manifest.executed == 0
    assert manifest.cached == manifest.total == 1  # pruned behind the target


def test_single_worker_queue_runs_through_the_queue(tmp_path):
    """``--backend queue --workers 1`` executes on queue workers: the
    queue file exists and every attempt carries a measured queue wait."""
    backend = QueueBackend(max_workers=1, poll_interval_s=0.02)
    values, manifest = run_diamond(tmp_path, backend)
    _, _, _, top = diamond()
    assert values[top.key()] == 1112
    assert manifest.backend == "queue"
    assert os.path.exists(tmp_path / "queue.sqlite")
    assert len(manifest.attempts) == 4
    assert all(a.queue_wait_s is not None for a in manifest.attempts)


@pytest.mark.parametrize("backend", ("serial", "pool"))
def test_corrupt_cached_dependency_is_recomputed_on_the_backend(tmp_path,
                                                                 backend):
    base, left, right, top = diamond()
    graph = TaskGraph()
    graph.add(top)
    Scheduler(DiskCache(str(tmp_path))).run(graph, targets=(left.key(),))
    cache = DiskCache(str(tmp_path))
    with open(cache._path(left.key()), "wb") as handle:
        handle.write(b"truncated garbage")

    executor = Scheduler(cache, backend=make_backend(backend, max_workers=2))
    values = executor.run(graph)
    manifest = executor.last_manifest
    assert values[top.key()] == 1112
    assert manifest.executed == 3  # top, right, and the revoked left
    assert manifest.cached == 1  # base
    assert not manifest.failures
    executed = {a.key for a in manifest.attempts if a.outcome == "ok"}
    assert executed == {top.key(), right.key(), left.key()}


# -- dead-worker recovery (the queue backend's reason to exist) ----------------


def test_killed_queue_worker_job_is_reclaimed_and_rerun(tmp_path, monkeypatch):
    """Kill a worker mid-job: the lease expires, the job is reclaimed,
    another worker reruns it, and results match the serial backend."""
    serial_values, _ = run_diamond(tmp_path / "serial", "serial")

    kill_dir = tmp_path / "kills"
    # "value=1000" appears only in the repr of the "top" job (a dependency
    # name would also match every consumer embedding its repr)
    monkeypatch.setenv("REPRO_INJECT_KILL", "add:value=1000")
    monkeypatch.setenv("REPRO_INJECT_KILL_DIR", str(kill_dir))
    backend = QueueBackend(max_workers=2, lease_s=0.5, poll_interval_s=0.02)
    values, manifest = run_diamond(tmp_path / "queue", backend)

    assert values == serial_values
    assert not manifest.failures
    # the first attempt on "top" was recorded lost, then requeued for free
    _, _, _, top = diamond()
    lost = [a for a in manifest.attempts if a.outcome == "lost"]
    assert [a.key for a in lost] == [top.key()]
    assert "lease expired" in lost[0].error
    reruns = [a for a in manifest.attempts
              if a.key == top.key() and a.outcome == "ok"]
    assert reruns, "the reclaimed job never reran"
    # exactly one kill marker: the rerun executed normally
    assert len(os.listdir(kill_dir)) == 1


def test_worker_killed_every_time_exhausts_requeues(tmp_path, monkeypatch):
    """Without the kill-once marker dir the job kills every worker that
    touches it; the scheduler must stop requeueing and fail the job."""
    monkeypatch.setenv("REPRO_INJECT_KILL", "add:value=1000")
    monkeypatch.delenv("REPRO_INJECT_KILL_DIR", raising=False)
    backend = QueueBackend(max_workers=2, lease_s=0.3, poll_interval_s=0.02)
    base, left, right, top = diamond()
    graph = TaskGraph()
    graph.add(top)
    executor = Scheduler(DiskCache(str(tmp_path)), backend=backend,
                         keep_going=True)
    values = executor.run(graph)
    manifest = executor.last_manifest

    (failure,) = manifest.failures
    assert failure.key == top.key()
    assert "WorkerLostError" in failure.error or "lease" in failure.error
    lost = [a for a in manifest.attempts if a.outcome == "lost"]
    assert len(lost) == 1 + 3  # first loss + MAX_LOST_REQUEUES more
    # healthy dependencies still ran and are cached for a future rerun
    assert values[left.key()] == 11
    assert values[right.key()] == 101
    assert top.key() not in values


def test_elastic_worker_attaches_to_a_live_queue(tmp_path):
    """An externally-started worker (the ``repro-eval worker`` path) can
    drain a queue it never saw created."""
    from repro.runtime.backends.queue import worker_loop

    # no local workers: only the externally-attached one can make progress
    backend = QueueBackend(max_workers=2, spawn_workers=False,
                           poll_interval_s=0.02)
    future_values = {}

    def run():
        values, _ = run_diamond(tmp_path, backend)
        future_values.update(values)

    run_thread = threading.Thread(target=run)
    run_thread.start()
    deadline = time.monotonic() + 10.0
    while backend.queue_path is None and time.monotonic() < deadline:
        time.sleep(0.01)  # wait for start() to settle the queue path
    executed = worker_loop(backend.queue_path, str(tmp_path),
                           worker_id="external", idle_timeout_s=1.0)
    run_thread.join(timeout=10.0)
    assert not run_thread.is_alive()
    assert executed == 4
    _, _, _, top = diamond()
    assert future_values[top.key()] == 1112


# -- portable deadline ---------------------------------------------------------


def test_deadline_times_out_in_main_thread():
    with pytest.raises(JobTimeoutError, match="0.05s timeout"):
        call_with_deadline(lambda: time.sleep(1), 0.05)


def test_deadline_times_out_in_worker_thread():
    """Off the main thread SIGALRM is unavailable; the watcher-thread
    fallback must produce the same exception and message."""
    def target():
        call_with_deadline(lambda: time.sleep(1), 0.05)

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        with pytest.raises(JobTimeoutError, match="0.05s timeout"):
            pool.submit(target).result(timeout=10)


def test_deadline_returns_value_when_fast_enough():
    assert call_with_deadline(lambda: 42, 5.0) == 42
    in_thread = []
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        pool.submit(
            lambda: in_thread.append(call_with_deadline(lambda: 7, 5.0))
        ).result(timeout=10)
    assert in_thread == [7]
