"""End-to-end invariants of the evaluation pipeline."""

import numpy as np
import pytest

from repro.compression import make as make_compressor
from repro.datasets import load, split
from repro.forecasting import GBoostForecaster, paired_windows
from repro.metrics import nrmse, tfe


@pytest.fixture(scope="module")
def setup():
    dataset = load("ETTm1", length=1_800)
    parts = split(dataset)
    model = GBoostForecaster(input_length=48, horizon=12, n_estimators=15,
                             seed=0)
    model.fit(parts.train.target_series.values,
              parts.validation.target_series.values)
    return parts.test.target_series, model


def evaluate_on(model, inputs, raw_test):
    x, y = paired_windows(inputs, raw_test, model.input_length,
                          model.horizon, stride=12)
    return nrmse(y.ravel(), model.predict(x).ravel())


def test_lossless_transform_has_zero_tfe(setup):
    """GORILLA round-trips exactly, so the TFE must be exactly zero."""
    test_series, model = setup
    raw = test_series.values
    decompressed = make_compressor("GORILLA").compress(test_series).decompressed
    assert np.array_equal(decompressed.values, raw)
    baseline = evaluate_on(model, raw, raw)
    transformed = evaluate_on(model, decompressed.values, raw)
    assert tfe(baseline, transformed) == 0.0


def test_error_bound_zero_is_near_lossless(setup):
    """At eps = 0 the lossy methods reduce to (float32-rounded) identity."""
    test_series, model = setup
    raw = test_series.values
    baseline = evaluate_on(model, raw, raw)
    for method in ("PMC", "SWING"):
        decompressed = make_compressor(method).compress(
            test_series, 0.0).decompressed
        transformed = evaluate_on(model, decompressed.values, raw)
        assert abs(tfe(baseline, transformed)) < 0.01, method


def test_tfe_is_bounded_below_by_minus_one(setup):
    """TFE = (err_t - err_b) / err_b >= -1 since errors are non-negative."""
    test_series, model = setup
    raw = test_series.values
    baseline = evaluate_on(model, raw, raw)
    for method in ("PMC", "SWING", "SZ"):
        for bound in (0.1, 0.5):
            decompressed = make_compressor(method).compress(
                test_series, bound).decompressed
            value = tfe(baseline, evaluate_on(model, decompressed.values, raw))
            assert value >= -1.0


def test_decompressed_series_keeps_time_axis(setup):
    test_series, _ = setup
    for method in ("PMC", "SWING", "SZ", "GORILLA", "PPA"):
        result = make_compressor(method).compress(test_series, 0.1)
        assert result.decompressed.start == test_series.start
        assert result.decompressed.interval == test_series.interval
        assert len(result.decompressed) == len(test_series)
