"""The ``uses_positions`` capability flag across the model zoo."""

import numpy as np

from repro.forecasting.base import Forecaster
from repro.forecasting.ensemble import EnsembleForecaster
from repro.forecasting.registry import MODEL_CLASSES, make


def test_default_is_off():
    assert Forecaster.uses_positions is False


def test_arima_declares_positions():
    assert MODEL_CLASSES["Arima"].uses_positions is True


def test_window_models_do_not_declare_positions():
    for name, cls in MODEL_CLASSES.items():
        if name != "Arima":
            assert cls.uses_positions is False, name


def test_ensemble_propagates_any_member_flag():
    arima = make("Arima", input_length=24, horizon=6)
    dlinear = make("DLinear", input_length=24, horizon=6)
    assert EnsembleForecaster([arima, dlinear]).uses_positions is True
    assert EnsembleForecaster([dlinear]).uses_positions is False


def test_flagged_models_accept_positions_end_to_end():
    rng = np.random.default_rng(0)
    series = np.sin(np.arange(400) * 2 * np.pi / 24) + 0.05 * rng.normal(
        size=400)
    model = make("Arima", input_length=24, horizon=6, seasonal_period=24)
    model.fit(series[:300], series[300:360])
    windows = np.stack([series[330:354], series[336:360]])
    positions = np.array([330.0, 336.0])
    flagged = model.predict(windows, positions=positions)
    unflagged = model.predict(windows)
    assert flagged.shape == unflagged.shape == (2, 6)
