"""End-to-end integration tests for the evaluation engine (fast models)."""

import numpy as np
import pytest

from repro.api import (ApiService, CompressRequest, CompressResponse,
                       GridRequest)
from repro.core import (EvaluationConfig, analyze_importance,
                        elbow_summaries, mean_over_seeds, tfe_table)
from repro.core.results import RAW


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = EvaluationConfig(
        datasets=("ETTm1",),
        models=("Arima", "DLinear"),
        compressors=("PMC", "SWING"),
        error_bounds=(0.05, 0.2, 0.5),
        dataset_length=1_800,
        input_length=48,
        horizon=12,
        eval_stride=12,
        deep_seeds=1,
        simple_seeds=1,
        cache_dir=str(tmp_path_factory.mktemp("cache")),
        model_kwargs={"DLinear": {"epochs": 15, "kernel": 9}},
    )
    return ApiService(config)


@pytest.fixture(scope="module")
def records(service):
    out = []
    for model in service.config.models:
        out += service.grid(GridRequest(datasets=("ETTm1",),
                                        models=(model,)))[0]
    return out


def compression_sweep(service, dataset):
    """Every configured (method, bound) cell over the full series."""
    config = service.config
    return [response for response in service.compress_batch(
                [CompressRequest(dataset, method, bound)
                 for method in config.compressors
                 for bound in config.error_bounds])
            if isinstance(response, CompressResponse)]


def trained_model(service, model, dataset, seed):
    job = service.train_job(model, dataset, seed)
    return service.run_jobs([job])[job.key()]


def test_baseline_beats_trivial_levels(records):
    means = mean_over_seeds(records)
    for model in ("Arima", "DLinear"):
        baseline = means[("ETTm1", model, RAW, 0.0, False)]
        assert baseline["NRMSE"] < 0.25
        assert baseline["R"] > 0.5


def test_scenario_covers_full_grid(records):
    scenario = [r for r in records if r.method != RAW]
    assert len(scenario) == 2 * 2 * 3  # models x compressors x bounds


def test_tfe_small_at_low_bound_large_at_high_bound(records):
    table = tfe_table(records)
    for model in ("Arima", "DLinear"):
        low = table[("ETTm1", model, "PMC", 0.05, False)]
        high = table[("ETTm1", model, "PMC", 0.5, False)]
        assert low < high  # accuracy degrades as the bound grows
        assert abs(low) < 0.5  # mild impact at a low bound


def test_compression_sweep_has_monotone_cr(service):
    sweep = compression_sweep(service, "ETTm1")
    for method in ("PMC", "SWING"):
        ratios = [r.compression_ratio for r in sweep if r.method == method]
        assert ratios[0] < ratios[-1]


def test_gorilla_ratio_positive(service):
    gorilla, = service.compress_batch([CompressRequest("ETTm1", "GORILLA",
                                                       0.0)])
    assert gorilla.compression_ratio > 0.5


def test_transformed_split_respects_bound(service):
    from repro.compression import check_error_bound

    raw = service.split("ETTm1").test.target_series
    transformed = service.transform(
        CompressRequest("ETTm1", "PMC", 0.2, part="test")).decompressed
    assert check_error_bound(raw, transformed, 0.2)


def test_elbow_summaries_produced(service, records):
    sweeps = {"ETTm1": compression_sweep(service, "ETTm1")}
    summaries = elbow_summaries(records, sweeps)
    assert {s.method for s in summaries} == {"PMC", "SWING"}
    for summary in summaries:
        assert summary.error_bound in service.config.error_bounds


def test_characteristic_deltas_and_importance(service, records):
    config = service.config
    deltas = {"ETTm1": service.feature_deltas("ETTm1", config.compressors,
                                              config.error_bounds)}
    analysis = analyze_importance(deltas, records, n_estimators=40)
    assert analysis.x.shape[1] == 42
    assert len(analysis.shap_ranking) == 42
    assert analysis.r_squared > 0.3
    # rankings must be sorted by importance
    importances = [value for _, value in analysis.shap_ranking]
    assert importances == sorted(importances, reverse=True)


def test_retrain_records_shape(service):
    records, _ = service.grid(GridRequest(
        datasets=("ETTm1",), models=("Arima",), methods=("PMC",),
        error_bounds=(0.2,), include_baseline=False, retrained=True))
    assert len(records) == 1
    assert records[0].retrained


def test_model_cache_returns_same_instance(service):
    a = trained_model(service, "Arima", "ETTm1", 0)
    b = trained_model(service, "Arima", "ETTm1", 0)
    assert a is b


def test_predictions_deterministic_across_cache(service):
    raw = service.split("ETTm1").test.target_series.values
    from repro.forecasting import make_windows
    x, _ = make_windows(raw, 48, 12, stride=12)
    model = trained_model(service, "DLinear", "ETTm1", 0)
    assert np.array_equal(model.predict(x), model.predict(x))
