"""Tests for the shared deep-forecaster plumbing."""

import numpy as np
import pytest

from repro.forecasting import DLinearForecaster
from repro.forecasting.dlinear import moving_average_split


def seasonal(n=800, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 50.0 + 10.0 * np.sin(2 * np.pi * t / 16) + rng.normal(0, 0.3, n)


def test_predictions_are_on_original_scale():
    values = seasonal()
    model = DLinearForecaster(input_length=32, horizon=8, epochs=10, kernel=9)
    model.fit(values[:600], values[600:700])
    from repro.forecasting import make_windows
    x, _ = make_windows(values[700:], 32, 8)
    prediction = model.predict(x)
    # outputs live near the data's scale (~50), not the scaled space (~0)
    assert 30 < prediction.mean() < 70


def test_validation_history_recorded():
    values = seasonal()
    model = DLinearForecaster(input_length=32, horizon=8, epochs=6, kernel=9)
    model.fit(values[:600], values[600:700])
    assert 1 <= len(model.validation_history) <= 6
    assert all(np.isfinite(v) for v in model.validation_history)


def test_degenerate_validation_falls_back_to_train_slice():
    values = seasonal()
    model = DLinearForecaster(input_length=32, horizon=8, epochs=4, kernel=9)
    model.fit(values[:600], values[600:610])  # too short for a window
    assert model._fitted


def test_moving_average_split_reconstructs():
    windows = np.random.default_rng(1).normal(0, 1, (5, 40))
    trend, remainder = moving_average_split(windows, kernel=7)
    assert np.allclose(trend + remainder, windows)
    # the trend is smoother than the input
    assert np.var(np.diff(trend, axis=1)) < np.var(np.diff(windows, axis=1))


def test_moving_average_split_handles_1d():
    trend, remainder = moving_average_split(np.arange(20.0), kernel=5)
    assert trend.shape == (1, 20)
    # a linear ramp's moving average is the ramp itself away from edges
    assert np.allclose(trend[0, 4:16], np.arange(20.0)[4:16], atol=1e-9)


def test_bad_kernel_rejected():
    with pytest.raises(ValueError):
        DLinearForecaster(kernel=1)


@pytest.mark.parametrize("validation_end", [610, 700])
def test_fit_draws_the_windows_building_all_would_keep(validation_end,
                                                        monkeypatch):
    """Train, then validation windows (the last tenth of the training
    windows on a degenerate split) are the rows that building every
    window and subsampling it kept, with the generator left where it."""
    from repro import reference

    values = seasonal()
    train, validation = values[:600], values[600:validation_end]
    model = DLinearForecaster(input_length=32, horizon=8, kernel=9,
                              max_train_windows=300,
                              max_validation_windows=20)
    seen = {}
    monkeypatch.setattr(
        model, "_train_on_windows",
        lambda x, y, x_val, y_val, rng: seen.update(
            rows=(x, y, x_val, y_val), next=rng.random()))
    model.fit(train, validation)

    rng = np.random.default_rng(model.seed)
    x, y = reference.make_windows(model._scaler.transform(train), 32, 8)
    if len(validation) >= 40:
        x_val, y_val = reference.make_windows(
            model._scaler.transform(validation), 32, 8)
    else:
        tail = max(len(x) // 10, 1)
        x_val, y_val = x[-tail:], y[-tail:]
    expected = (*reference.subsample_windows(x, y, 300, rng),
                *reference.subsample_windows(x_val, y_val, 20, rng))
    for drawn, built in zip(seen["rows"], expected):
        assert drawn.tobytes() == built.tobytes()
    assert seen["next"] == rng.random()
