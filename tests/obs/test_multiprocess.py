"""The merged trace: one file, every process, one span per job attempt."""

import json
import os
from dataclasses import dataclass
from typing import ClassVar

import pytest

import repro.obs as obs
from repro.obs import metrics, trace
from repro.obs.metrics import merge_snapshots
from repro.runtime.backends import make_backend
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec
from repro.runtime.scheduler import Scheduler


@dataclass(frozen=True)
class PidJob(JobSpec):
    """Picklable job returning the worker's pid."""

    kind: ClassVar[str] = "pid"

    name: str

    def dependencies(self):
        return ()

    def run(self, ctx, deps):
        return os.getpid()


@dataclass(frozen=True)
class FlakyOnceJob(JobSpec):
    """Fails on the first attempt, succeeds on the second (marker files)."""

    kind: ClassVar[str] = "flaky"

    name: str
    marker_dir: str

    def dependencies(self):
        return ()

    def run(self, ctx, deps):
        marker = os.path.join(self.marker_dir, f"{self.name}.ran")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            raise RuntimeError(f"first attempt of {self.name} fails")
        return self.name


@pytest.fixture(autouse=True)
def _shutdown_after():
    yield
    obs.shutdown()


def run_jobs(jobs, max_workers=1, **scheduler_kwargs):
    graph = TaskGraph()
    for job in jobs:
        graph.add(job)
    scheduler = Scheduler(backend=make_backend(None, max_workers=max_workers),
                          **scheduler_kwargs)
    values = scheduler.run(graph)
    return values, scheduler.last_manifest


def read_trace(path):
    spans, snapshots = [], []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            (spans if record["type"] == "span" else snapshots).append(record)
    return spans, snapshots


@pytest.mark.parametrize("workers", [1, 2])
def test_one_span_per_job_attempt_across_processes(tmp_path, workers):
    trace_path = tmp_path / "trace.jsonl"
    run_id = obs.configure(trace_path=str(trace_path))
    jobs = [PidJob(f"job{i}") for i in range(4)]
    values, manifest = run_jobs(jobs, max_workers=workers)
    obs.shutdown()

    assert len(values) == 4
    spans, snapshots = read_trace(trace_path)
    job_spans = [span for span in spans if span["name"] == "job"]
    assert len(job_spans) == 4
    assert all(span["run"] == run_id for span in spans)
    assert all(span["outcome"] == "ok" for span in job_spans)
    assert {span["tags"]["attempt"] for span in job_spans} == {1}
    if workers > 1:
        # worker spans carry the worker pid, not the parent's
        assert {span["pid"] for span in job_spans} == set(values.values())
        assert all(span["tags"]["queue_wait_s"] >= 0.0 for span in job_spans)
    # the manifest mirrors the trace, one AttemptRecord per span
    assert len(manifest.attempts) == 4
    assert all(record.outcome == "ok" for record in manifest.attempts)
    # metric flushes from every process merge into exact totals
    merged = merge_snapshots(snapshots)
    assert merged["counters"]["runtime.attempts.ok"] == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_and_retried_attempts_each_get_a_span(tmp_path, workers):
    trace_path = tmp_path / "trace.jsonl"
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    obs.configure(trace_path=str(trace_path))
    jobs = [FlakyOnceJob("flaky", str(marker_dir))]
    values, manifest = run_jobs(jobs, max_workers=workers, job_retries=1)
    obs.shutdown()

    assert values[jobs[0].key()] == "flaky"
    spans, snapshots = read_trace(trace_path)
    job_spans = sorted((span for span in spans if span["name"] == "job"),
                       key=lambda span: span["tags"]["attempt"])
    assert [span["outcome"] for span in job_spans] == ["error", "ok"]
    assert [span["tags"]["attempt"] for span in job_spans] == [1, 2]
    assert "RuntimeError" in job_spans[0]["error"]
    assert [(r.attempt, r.outcome) for r in manifest.attempts] == [
        (1, "error"), (2, "ok")]
    merged = merge_snapshots(snapshots)
    assert merged["counters"]["runtime.attempts.error"] == 1
    assert merged["counters"]["runtime.attempts.ok"] == 1
    assert merged["counters"]["runtime.retries"] == 1


def test_pool_grid_counts_each_probe_once(tmp_path):
    # forked workers start from an empty registry: none of them re-flushes
    # the probe counts the parent had not yet written when the pool forked
    from repro.api import GridRequest
    from repro.api.service import ApiService
    from repro.core.config import EvaluationConfig

    config = EvaluationConfig(
        datasets=("ETTm1",), models=("Arima",), compressors=("PMC", "SWING"),
        error_bounds=(0.1,), dataset_length=1_200, input_length=48,
        horizon=12, eval_stride=12, simple_seeds=1, cache_dir=None,
        backend="pool", max_workers=2, trace_dir=str(tmp_path))
    _, manifest = ApiService(config).grid(GridRequest())
    obs.shutdown()

    _, snapshots = read_trace(tmp_path / "trace.jsonl")
    counters = merge_snapshots(snapshots)["counters"]
    probes = (counters.get("runtime.probe.hit", 0)
              + counters.get("runtime.probe.miss", 0))
    assert manifest.total > 0
    assert probes == manifest.total


def test_state_ensure_round_trip_is_idempotent(tmp_path):
    assert obs.state() is None  # disabled -> nothing to propagate
    obs.ensure(None)  # and adopting nothing is a no-op
    run_id = obs.configure(trace_path=str(tmp_path / "trace.jsonl"))
    snapshot = obs.state()
    assert snapshot["run_id"] == run_id
    assert snapshot["tracing"] and snapshot["metrics"]
    tracer_before = trace.active()
    registry_before = metrics.active()
    obs.ensure(snapshot)  # same run id: must not reconfigure
    assert trace.active() is tracer_before
    assert metrics.active() is registry_before


def test_ensure_adopts_a_run_without_truncating(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    obs.configure(trace_path=str(trace_path))
    with trace.span("parent.work"):
        pass
    snapshot = obs.state()
    obs.shutdown()  # simulate a spawn-started worker: no inherited globals
    obs.ensure(snapshot)
    with trace.span("worker.work"):
        pass
    obs.shutdown()
    spans, _ = read_trace(trace_path)
    assert [span["name"] for span in spans] == ["parent.work", "worker.work"]
    assert len({span["run"] for span in spans}) == 1
