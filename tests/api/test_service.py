"""ApiService: the one engine behind the façade, the CLI, and the server."""

import pytest

from repro.api import (ApiService, CompressRequest, CompressResponse,
                       ErrorEnvelope, ForecastRequest, ForecastResponse,
                       GridRequest)
from repro.core.config import EvaluationConfig


@pytest.fixture()
def service():
    return ApiService(EvaluationConfig(dataset_length=1_000, cache_dir=None))


def test_compress_batch_matches_direct_computation(service):
    from repro.compression import make, raw_gz_size
    from repro.compression.serialize import compression_ratio
    from repro.datasets import load
    from repro.metrics import transformation_error

    request = CompressRequest("ETTm1", "PMC", 0.1, part="full")
    response, = service.compress_batch([request])
    assert isinstance(response, CompressResponse)

    series = load("ETTm1", length=1_000).target_series
    result = make("PMC").compress(series, 0.1)
    assert response.compressed_size == result.compressed_size
    assert response.num_segments == result.num_segments
    assert response.compression_ratio == pytest.approx(
        compression_ratio(raw_gz_size(series), result.compressed_size))
    assert response.te["NRMSE"] == pytest.approx(
        transformation_error(series, result.decompressed, "NRMSE"))


def test_compress_batch_preserves_request_order(service):
    requests = [CompressRequest("ETTm1", method, bound, part="full")
                for method in ("SWING", "PMC")
                for bound in (0.4, 0.1)]
    responses = service.compress_batch(requests)
    assert [(r.method, r.error_bound) for r in responses] \
        == [(q.method, q.error_bound) for q in requests]


def test_duplicate_requests_collapse_to_one_job(service):
    request = CompressRequest("ETTm1", "PMC", 0.1, part="full")
    responses = service.compress_batch([request] * 5)
    assert len(responses) == 5
    assert len({id(type(r)) for r in responses}) == 1
    # content-addressing: 5 identical requests plan 1 compress job
    compress_planned = service.last_manifest.phase_total.get("compress")
    assert compress_planned == 1
    assert all(r == responses[0] for r in responses)


def test_a_grid_over_every_dataset_loads_each_once(monkeypatch):
    """The run context keeps one source per registered dataset, so a grid
    over all of them at one length never loads a dataset twice."""
    from repro.datasets.registry import DATASET_NAMES
    from repro.runtime import jobs as jobs_module

    loads = []
    real = jobs_module.load

    def counted(name, length=None):
        loads.append(name)
        return real(name, length=length)

    monkeypatch.setattr(jobs_module, "load", counted)
    service = ApiService(EvaluationConfig(dataset_length=1_500,
                                          cache_dir=None))
    records, _ = service.grid(GridRequest(
        datasets=DATASET_NAMES, models=("Arima",), methods=("PMC",),
        error_bounds=(0.1,), seeds=1))
    assert len(records) == 2 * len(DATASET_NAMES)
    assert sorted(loads) == sorted(DATASET_NAMES)


def test_a_batch_past_the_source_table_loads_each_source_once(monkeypatch):
    """A batch naming more (dataset, length) sources than the run context
    keeps answers each while it is resident, so none loads twice."""
    from repro.runtime import jobs as jobs_module

    loads = []
    real = jobs_module.load

    def counted(name, length=None):
        loads.append(length)
        return real(name, length=length)

    monkeypatch.setattr(jobs_module, "load", counted)
    service = ApiService(EvaluationConfig(cache_dir=None))
    requests = [CompressRequest("Wind", "PMC", 0.1, length=length)
                for length in range(1_000, 1_007)]
    responses = service.compress_batch(requests)
    assert all(isinstance(r, CompressResponse) for r in responses)
    assert sorted(loads) == list(range(1_000, 1_007))
    single = ApiService(EvaluationConfig(cache_dir=None))
    assert responses == [single.compress_batch([r])[0] for r in requests]


def test_raw_size_is_computed_once_per_series_across_batches(
        service, monkeypatch):
    from repro.api import codec
    from repro.api import service as service_module
    from repro.compression import make, raw_gz_size
    from repro.compression.serialize import compression_ratio

    calls = []

    def counting_raw_gz_size(series):
        calls.append(series)
        return raw_gz_size(series)

    monkeypatch.setattr(service_module, "raw_gz_size", counting_raw_gz_size)
    first = service.compress_batch([CompressRequest("ETTm1", "PMC", 0.1)])
    second = service.compress_batch([CompressRequest("ETTm1", "SWING", 0.1),
                                     CompressRequest("ETTm1", "PMC", 0.4)])
    assert len(calls) == 1

    series = service.dataset("ETTm1").target_series
    for response in first + second:
        result = make(response.method).compress(series,
                                                response.error_bound)
        expected = CompressResponse(
            dataset="ETTm1", method=response.method,
            error_bound=response.error_bound, part="full",
            compressed_size=result.compressed_size,
            compression_ratio=compression_ratio(raw_gz_size(series),
                                                result.compressed_size),
            num_segments=result.num_segments, te=response.te)
        assert codec.dumps(response) == codec.dumps(expected)


def test_grid_requests_expand_in_record_order(service):
    requests = service.grid_requests(GridRequest(
        datasets=("ETTm1",), models=("GBoost",),
        methods=("PMC", "SWING"), error_bounds=(0.1, 0.4)))
    cells = [(r.method, r.error_bound) for r in requests]
    # baseline first, then method-major, bound-minor — the legacy order
    assert cells == [("RAW", 0.0), ("PMC", 0.1), ("PMC", 0.4),
                     ("SWING", 0.1), ("SWING", 0.4)]


def test_grid_requests_honors_include_baseline(service):
    requests = service.grid_requests(GridRequest(
        datasets=("ETTm1",), models=("GBoost",), methods=("PMC",),
        error_bounds=(0.1,), include_baseline=False))
    assert all(r.method != "RAW" for r in requests)


def test_keep_going_degrades_failed_cells_to_envelopes(monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "compress:SWING")
    service = ApiService(EvaluationConfig(dataset_length=1_000,
                                          cache_dir=None, keep_going=True))
    requests = [CompressRequest("ETTm1", "PMC", 0.1, part="full"),
                CompressRequest("ETTm1", "SWING", 0.1, part="full")]
    ok, failed = service.compress_batch(requests)
    assert isinstance(ok, CompressResponse)
    assert isinstance(failed, ErrorEnvelope)
    assert failed.kind == "compress"
    assert "InjectedFailure" in failed.message
    assert service.failure_envelopes() == [failed]


def test_fail_fast_raises_job_error(monkeypatch):
    from repro.runtime.manifest import JobError

    monkeypatch.setenv("REPRO_INJECT_FAILURE", "compress:SWING")
    service = ApiService(EvaluationConfig(dataset_length=1_000,
                                          cache_dir=None, keep_going=False))
    with pytest.raises(JobError):
        service.compress_batch(
            [CompressRequest("ETTm1", "SWING", 0.1, part="full")])


def test_forecast_batch_returns_typed_records():
    service = ApiService(EvaluationConfig(
        dataset_length=1_200, input_length=48, horizon=12, eval_stride=12,
        deep_seeds=1, simple_seeds=1, cache_dir=None))
    response, = service.forecast_batch(
        [ForecastRequest("GBoost", "ETTm1", method="PMC", error_bound=0.1)])
    assert isinstance(response, ForecastResponse)
    assert response.metrics["NRMSE"] > 0
    assert response.to_record().metrics == dict(response.metrics)


def test_request_length_overrides_config_length(service):
    short, = service.compress_batch(
        [CompressRequest("ETTm1", "PMC", 0.1, part="full", length=500)])
    full, = service.compress_batch(
        [CompressRequest("ETTm1", "PMC", 0.1, part="full")])
    assert short.compressed_size != full.compressed_size
