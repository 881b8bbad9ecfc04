"""Fault tolerance: retries, timeouts, keep-going isolation, clean pools."""

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.core import Evaluation, EvaluationConfig
from repro.core.cache import DiskCache
from repro.runtime.backends import make_backend
from repro.runtime.deadline import JobTimeoutError
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import FailureRecord, JobError
from repro.runtime.scheduler import Scheduler


@dataclass(frozen=True)
class OkJob(JobSpec):
    """Healthy job returning its value plus the sum of its dependencies."""

    kind: ClassVar[str] = "ok"

    name: str
    value: int
    deps: tuple["JobSpec", ...] = ()

    def dependencies(self):
        return self.deps

    def run(self, ctx, deps):
        return self.value + sum(deps[d.key()] for d in self.deps)


@dataclass(frozen=True)
class FlakyJob(JobSpec):
    """Raises on its first ``fail_times`` attempts, then succeeds.

    Attempts are counted with marker files under ``marker_dir`` so the
    count survives process boundaries (pool workers).
    """

    kind: ClassVar[str] = "flaky"

    name: str
    marker_dir: str
    fail_times: int = 1
    deps: tuple["JobSpec", ...] = ()

    def dependencies(self):
        return self.deps

    def run(self, ctx, deps):
        attempt = len([f for f in os.listdir(self.marker_dir)
                       if f.startswith(self.name + ".attempt")])
        with open(os.path.join(self.marker_dir,
                               f"{self.name}.attempt{attempt}"), "w"):
            pass
        if attempt < self.fail_times:
            raise RuntimeError(f"flaky {self.name}: attempt {attempt} fails")
        return self.name


@dataclass(frozen=True)
class BoomJob(JobSpec):
    """Always raises."""

    kind: ClassVar[str] = "boom"

    name: str
    deps: tuple["JobSpec", ...] = ()

    def dependencies(self):
        return self.deps

    def run(self, ctx, deps):
        raise RuntimeError(f"boom in {self.name}")


@dataclass(frozen=True)
class SleepJob(JobSpec):
    """Sleeps for ``seconds`` (a hung-job stand-in for timeout tests)."""

    kind: ClassVar[str] = "sleep"

    name: str
    seconds: float

    def run(self, ctx, deps):
        deadline = time.monotonic() + self.seconds
        while time.monotonic() < deadline:
            time.sleep(0.01)
        return self.name


def run_targets(executor, *jobs):
    graph = TaskGraph()
    for job in jobs:
        graph.add(job)
    return executor.run(graph)


def assert_no_leaked_workers(before):
    """Every process alive now was already alive before the run."""
    leaked = [p for p in multiprocessing.active_children()
              if p not in before and p.is_alive()]
    assert leaked == [], leaked


# -- fail-fast (default) -------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_fail_fast_raises_job_error_naming_the_job(workers):
    boom = BoomJob("b1")
    other = OkJob("ok1", 7)
    before = multiprocessing.active_children()
    executor = Scheduler(backend=make_backend(None, max_workers=workers))
    with pytest.raises(JobError) as excinfo:
        run_targets(executor, boom, other)
    assert excinfo.value.kind == "boom"
    assert excinfo.value.key == boom.key()
    assert excinfo.value.failure.attempts == 1
    assert "boom" in str(excinfo.value)
    # the failure is also visible in the manifest of the aborted run
    assert len(executor.last_manifest.failures) == 1
    assert_no_leaked_workers(before)


def test_pool_fail_fast_shuts_down_cleanly_with_slow_siblings():
    # a crash while siblings are still running must cancel/join, not leak
    boom = BoomJob("b2")
    slow = [SleepJob(f"s{i}", 30.0) for i in range(2)]
    before = multiprocessing.active_children()
    start = time.monotonic()
    executor = Scheduler(backend=make_backend(None, max_workers=2),
                         job_timeout=2.0)
    with pytest.raises(JobError):
        run_targets(executor, boom, *slow)
    assert time.monotonic() - start < 25.0  # did not wait out the sleeps
    assert_no_leaked_workers(before)


# -- retries -------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_transient_failure_is_retried_and_succeeds(tmp_path, workers):
    flaky = FlakyJob("f1", str(tmp_path), fail_times=1)
    executor = Scheduler(backend=make_backend(None, max_workers=workers),
                         job_retries=1)
    values = run_targets(executor, flaky, OkJob("ok2", 1))
    assert values[flaky.key()] == "f1"
    manifest = executor.last_manifest
    assert manifest.failures == []
    assert manifest.executed == 2
    # two attempt markers: the failing first try plus the retry
    assert len(os.listdir(tmp_path)) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_exhausted_retries_count_every_attempt(tmp_path, workers):
    flaky = FlakyJob("f2", str(tmp_path), fail_times=10)
    executor = Scheduler(backend=make_backend(None, max_workers=workers),
                         job_retries=2, keep_going=True)
    values = run_targets(executor, flaky, OkJob("ok3", 1))
    assert flaky.key() not in values
    (failure,) = executor.last_manifest.failures
    assert failure.attempts == 3  # initial try + 2 retries
    assert "flaky" in failure.error


# -- keep-going isolation ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_keep_going_isolates_the_dependent_subtree(workers):
    boom = BoomJob("b3")
    downstream = OkJob("down", 5, (boom,))
    independent = [OkJob(f"ind{i}", i) for i in range(3)]
    before = multiprocessing.active_children()
    executor = Scheduler(backend=make_backend(None, max_workers=workers),
                         keep_going=True)
    values = run_targets(executor, downstream, *independent)
    # every independent cell completed; the poisoned subtree did not
    for job in independent:
        assert values[job.key()] == job.value
    assert boom.key() not in values
    assert downstream.key() not in values
    manifest = executor.last_manifest
    assert [f.key for f in manifest.failures] == [boom.key()]
    assert isinstance(manifest.failures[0], FailureRecord)
    assert manifest.skipped == [downstream.key()]
    assert_no_leaked_workers(before)


def test_keep_going_serial_and_pool_agree(tmp_path):
    def build():
        boom = BoomJob("b4")
        mid = OkJob("mid", 3, (boom,))
        top = OkJob("top", 4, (mid,))
        healthy = OkJob("base", 1)
        healthy_top = OkJob("htop", 2, (healthy,))
        return (top, healthy_top), (boom, mid)

    results = {}
    for backend in ("serial", "pool", "queue"):
        targets, _ = build()
        executor = Scheduler(DiskCache(str(tmp_path / backend)),
                             backend=make_backend(backend, max_workers=2),
                             keep_going=True)
        values = run_targets(executor, *targets)
        manifest = executor.last_manifest
        attempts = {(a.key, a.attempt, a.outcome) for a in manifest.attempts}
        results[backend] = (values, [f.key for f in manifest.failures],
                            sorted(manifest.skipped), attempts)
    assert results["serial"] == results["pool"] == results["queue"]
    values, failed, skipped, attempts = results["serial"]
    (_, healthy_top), (boom, mid) = build()[0], build()[1]
    assert values[healthy_top.key()] == 3
    assert failed == [boom.key()]
    assert len(skipped) == 2  # mid and top
    assert (boom.key(), 1, "error") in attempts
    assert len(attempts) == 3  # boom, base and htop, one attempt each


@dataclass(frozen=True)
class WorkerKillerJob(JobSpec):
    """Kills its worker process outright on the first attempt.

    ``os._exit`` gives the parent no exception to catch — the pool breaks
    with ``BrokenProcessPool`` — so this exercises the restart-and-resubmit
    path rather than ordinary in-job error handling.
    """

    kind: ClassVar[str] = "killer"

    name: str
    marker_dir: str

    def run(self, ctx, deps):
        marker = os.path.join(self.marker_dir, self.name + ".ran")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(1)
        return self.name


def test_broken_pool_is_restarted_and_jobs_resubmitted(tmp_path):
    killer = WorkerKillerJob("k1", str(tmp_path))
    sibling = OkJob("sib", 11)
    before = multiprocessing.active_children()
    executor = Scheduler(backend=make_backend(None, max_workers=2),
                         job_retries=1)
    values = run_targets(executor, killer, sibling)
    # the second attempt (on a fresh pool) succeeds; the sibling survives
    # the breakage too, resubmitted if it was in flight when the pool died
    assert values[killer.key()] == "k1"
    assert values[sibling.key()] == 11
    assert executor.last_manifest.failures == []
    assert_no_leaked_workers(before)


def test_broken_pool_without_retries_fails_the_job(tmp_path):
    killer = WorkerKillerJob("k2", str(tmp_path))
    before = multiprocessing.active_children()
    executor = Scheduler(backend=make_backend(None, max_workers=2),
                         keep_going=True)
    values = run_targets(executor, killer, OkJob("sib2", 12),
                         OkJob("sib3", 13))
    assert killer.key() not in values
    failures = executor.last_manifest.failures
    assert any(f.key == killer.key() for f in failures)
    assert all("BrokenProcessPool" in f.error for f in failures)
    assert_no_leaked_workers(before)


# -- timeouts ------------------------------------------------------------------


def test_pool_timeout_kills_hung_job_and_keeps_pool_healthy():
    hung = SleepJob("hang", 60.0)
    quick = OkJob("quick", 9)
    before = multiprocessing.active_children()
    start = time.monotonic()
    executor = Scheduler(backend=make_backend(None, max_workers=2),
                         job_timeout=0.5, keep_going=True)
    values = run_targets(executor, hung, quick)
    assert time.monotonic() - start < 30.0
    assert values[quick.key()] == 9
    (failure,) = executor.last_manifest.failures
    assert failure.key == hung.key()
    assert "JobTimeoutError" in failure.error
    assert_no_leaked_workers(before)


def test_serial_timeout_raises_job_error():
    hung = SleepJob("hang2", 60.0)
    executor = Scheduler(backend=make_backend(None, max_workers=1),
                         job_timeout=0.3)
    start = time.monotonic()
    with pytest.raises(JobError) as excinfo:
        run_targets(executor, hung)
    assert time.monotonic() - start < 30.0
    assert isinstance(excinfo.value.__cause__, JobTimeoutError)


# -- fault-injection hook ------------------------------------------------------


def test_injection_hook_matches_kind_and_repr(monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "ok:target")
    executor = Scheduler(keep_going=True)
    values = run_targets(executor, OkJob("target", 1), OkJob("spared", 2))
    assert len(values) == 1
    (failure,) = executor.last_manifest.failures
    assert "InjectedFailure" in failure.error


# -- end-to-end acceptance -----------------------------------------------------


def _grid_config(cache_dir, workers, **overrides):
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
        **overrides,
    )


def test_injected_crash_in_one_cell_of_parallel_grid(tmp_path, monkeypatch):
    # acceptance: one crashing cell of a 4-cell grid under keep-going must
    # not cost any sibling, leak a worker, or perturb healthy results
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "forecast:SWING:0.4")
    before = multiprocessing.active_children()

    serial = Evaluation(_grid_config(str(tmp_path / "serial"), 1,
                                     keep_going=True))
    records_serial = serial.grid_records()

    parallel = Evaluation(_grid_config(str(tmp_path / "parallel"), 2,
                                       keep_going=True))
    records_parallel = parallel.grid_records()

    # 1 baseline + 4 lossy cells, one of which failed
    assert len(records_parallel) == 4
    assert records_serial == records_parallel  # byte-identical healthy cells
    for evaluation in (serial, parallel):
        (failure,) = evaluation.last_failures
        assert failure.kind == "forecast"
        assert "SWING" in failure.description
    assert not any(r.method == "SWING" and r.error_bound == 0.4
                   for r in records_parallel)
    assert_no_leaked_workers(before)

    # without keep-going the same crash aborts the run with a JobError
    strict = Evaluation(_grid_config(str(tmp_path / "strict"), 2))
    with pytest.raises(JobError) as excinfo:
        strict.grid_records()
    assert excinfo.value.kind == "forecast"
    assert_no_leaked_workers(before)
