"""Tests for the anomaly downstream task: jobs, builders, and the grid.

The task layer's contract: a second value on the grid's ``task`` axis
produces :class:`~repro.core.results.ScenarioRecord` rows through the
very same content-hashed task graph as forecasting — sharing
``CompressJob`` dependencies, caching by job key, and running
identically on every execution backend.
"""

import numpy as np
import pytest

from repro import registry
from repro.api import ApiService, ForecastRequest, GridRequest
from repro.core.config import EvaluationConfig
from repro.runtime.jobs import RAW, CompressJob, FeatureJob, RuntimeContext
from repro.tasks.anomaly import DEFAULT_TOLERANCE, AnomalyJob
from repro.tasks.detectors import MeanShiftDetector, make


def _config(**overrides):
    base = dict(datasets=("ETTm1",), models=("GBoost",),
                compressors=("PMC",), error_bounds=(0.1,),
                dataset_length=1_200, input_length=48, horizon=12,
                eval_stride=12, deep_seeds=1, simple_seeds=1, cache_dir=None)
    base.update(overrides)
    return EvaluationConfig(**base)


# -- detectors --------------------------------------------------------------


def test_make_instantiates_registered_detectors():
    detector = make("MeanShift", window=30, threshold=5.0)
    assert isinstance(detector, MeanShiftDetector)
    assert detector.window == 30


def test_make_rejects_forecasting_models():
    with pytest.raises(KeyError, match="not an anomaly detector"):
        make("Arima")


def test_detectors_are_registered_under_the_anomaly_task():
    assert set(registry.model_names(task="anomaly")) == {"MeanShift",
                                                         "ZScore"}
    assert "anomaly" in registry.task_names()


# -- the job ----------------------------------------------------------------


def test_raw_job_scores_perfect_detection():
    job = AnomalyJob("MeanShift", "ETTm1", 1_200)
    assert job.dependencies() == ()
    record = job.run(RuntimeContext(), {})
    assert record.task == "anomaly"
    assert record.method == RAW
    assert record.metrics["feature_drift"] == 0.0
    # truth vs truth: every event matches itself
    if record.metrics["true_events"]:
        assert record.metrics["F1"] == 1.0


def test_compressed_job_shares_the_forecasting_compress_dependency():
    job = AnomalyJob("MeanShift", "ETTm1", 1_200, method="PMC",
                     error_bound=0.1)
    compress, features = job.dependencies()
    assert compress == CompressJob("ETTm1", 1_200, "PMC", 0.1, part="test")
    assert features == FeatureJob("ETTm1", 1_200, "PMC", 0.1)


def test_compressed_job_runs_on_the_decompressed_values():
    ctx = RuntimeContext()
    job = AnomalyJob("MeanShift", "ETTm1", 1_200, method="PMC",
                     error_bound=0.1)
    compress, features = job.dependencies()
    compressed = compress.run(ctx, {})
    deltas = features.run(ctx, {compress.key(): compressed})
    record = job.run(ctx, {compress.key(): compressed,
                           features.key(): deltas})
    assert record.task == "anomaly"
    assert record.method == "PMC"
    assert 0.0 <= record.metrics["F1"] <= 1.0
    assert record.metrics["feature_drift"] >= 0.0


def test_job_key_is_stable_and_tolerance_sensitive():
    job = AnomalyJob("MeanShift", "ETTm1", 1_200, method="PMC",
                     error_bound=0.1)
    same = AnomalyJob("MeanShift", "ETTm1", 1_200, method="PMC",
                      error_bound=0.1, tolerance=DEFAULT_TOLERANCE)
    other = AnomalyJob("MeanShift", "ETTm1", 1_200, method="PMC",
                       error_bound=0.1, tolerance=12)
    assert job.key() == same.key()
    assert job.key() != other.key()
    assert job.key().startswith("anomaly-")


def test_job_survives_pickle():
    import pickle

    job = AnomalyJob("ZScore", "ETTm1", 1_200, method="SWING",
                     error_bound=0.2, model_kwargs=(("window", 24),))
    assert pickle.loads(pickle.dumps(job)) == job


# -- the service ------------------------------------------------------------


def test_task_builder_produces_anomaly_jobs():
    service = ApiService(_config())
    request = ForecastRequest("MeanShift", "ETTm1", method="PMC",
                              error_bound=0.1, task="anomaly")
    job = service.forecast_job(request)
    assert isinstance(job, AnomalyJob)
    assert job.model == "MeanShift"
    assert job.method == "PMC"


def test_anomaly_grid_defaults_to_every_registered_detector():
    service = ApiService(_config())
    requests = service.grid_requests(GridRequest(task="anomaly"))
    assert {r.model for r in requests} == {"MeanShift", "ZScore"}
    assert all(r.task == "anomaly" for r in requests)
    # detectors are deterministic: one seed regardless of seed config
    assert {r.seed for r in requests} == {0}


def test_anomaly_grid_produces_task_tagged_records():
    config = _config(compressors=("PMC", "CAMEO"))
    records, manifest = ApiService(config).grid(
        GridRequest(models=("MeanShift",), task="anomaly"))
    assert records
    assert all(r.task == "anomaly" for r in records)
    assert {r.method for r in records} == {RAW, "PMC", "CAMEO"}
    assert all(set(r.metrics) >= {"F1", "precision", "recall",
                                  "feature_drift"} for r in records)


def test_grid_can_span_both_tasks_with_shared_compression(tmp_path):
    """Forecasting then anomaly over one cache: the anomaly grid reuses
    the forecasting grid's CompressJob cells (cached, not re-executed)."""
    config = _config(cache_dir=str(tmp_path))
    service = ApiService(config)
    _, first = service.grid(GridRequest(models=("GBoost",)))
    assert first.phase_executed.get("compress", 0) >= 1

    _, second = ApiService(config).grid(
        GridRequest(models=("MeanShift",), task="anomaly"))
    assert second.phase_executed.get("compress", 0) == 0, \
        "anomaly grid must reuse cached compressions"


def test_detectors_share_one_feature_computation_per_cell(monkeypatch):
    """Characteristics run once per compressed cell (plus once for the
    raw split), not once per detector scoring that cell."""
    import repro.runtime.jobs as jobs
    import repro.tasks.anomaly as anomaly

    calls = []
    original = jobs.compute_all

    def counting(values, period):
        calls.append(len(values))
        return original(values, period)

    for module in (jobs, anomaly):
        monkeypatch.setattr(module, "compute_all", counting)
    methods = ("PMC", "SWING")
    records, _ = ApiService(_config(compressors=methods)).grid(
        GridRequest(models=("MeanShift", "ZScore"), task="anomaly"))
    cells = len(methods)  # one bound per method
    assert sum(r.method != RAW for r in records) == 2 * cells
    assert len(calls) == cells + 1


def test_each_detector_runs_on_the_raw_split_once_per_grid(monkeypatch):
    """The ground truth is memoized per detector: a RAW cell reuses it as
    its own detections, and each compressed cell adds one detect call."""
    from repro.tasks.detectors import ZScoreDetector

    calls = []
    for cls in (MeanShiftDetector, ZScoreDetector):
        original = cls.detect

        def counting(self, values, original=original):
            calls.append(type(self).__name__)
            return original(self, values)

        monkeypatch.setattr(cls, "detect", counting)
    methods = ("PMC", "SWING")
    records, _ = ApiService(_config(compressors=methods)).grid(
        GridRequest(models=("MeanShift", "ZScore"), task="anomaly"))
    assert sum(r.method == RAW for r in records) == 2
    # per detector: one raw truth plus one call per compressed cell
    assert len(calls) == 2 * (1 + len(methods))


def test_memoized_truth_is_keyed_by_detector_kwargs():
    shared = RuntimeContext()
    events = {}
    for kwargs in ((("window", 20),), (("window", 100),), ()):
        job = AnomalyJob("MeanShift", "ETTm1", 1_200, model_kwargs=kwargs)
        record = job.run(shared, {})
        assert record == job.run(RuntimeContext(), {})
        events[kwargs] = record.metrics["true_events"]
    # a shared context still gives each kwargs its own ground truth
    assert events[(("window", 20),)] > events[(("window", 100),)]


def test_retrained_anomaly_grid_is_rejected():
    from repro.api.errors import ValidationError

    with pytest.raises((ValueError, ValidationError)):
        GridRequest(task="anomaly", retrained=True).validate()
