"""Focused tests for the ARIMA implementation."""

import numpy as np
import pytest

from repro.forecasting.arima import ArimaForecaster, _fourier_design
from repro.forecasting.windows import make_windows
from repro.metrics import nrmse


def test_fourier_design_shapes_and_orthogonality():
    positions = np.arange(0, 960, dtype=float)
    design = _fourier_design(positions, period=96, terms=3)
    assert design.shape == (960, 6)
    # sin/cos columns over whole periods are (near) orthogonal
    gram = design.T @ design / 960
    off_diagonal = gram - np.diag(np.diag(gram))
    assert np.abs(off_diagonal).max() < 1e-10


def test_fourier_design_zero_terms():
    assert _fourier_design(np.arange(5.0), 96, 0).shape == (5, 0)


def test_ar1_process_recovers_coefficient():
    rng = np.random.default_rng(0)
    n = 4000
    values = np.zeros(n)
    for i in range(1, n):
        values[i] = 0.75 * values[i - 1] + rng.normal()
    model = ArimaForecaster(input_length=48, horizon=8,
                            orders=((1, 0, 0),), fourier_terms=0)
    model.fit(values[:3000], values[3000:3400])
    assert model._model.ar[0] == pytest.approx(0.75, abs=0.05)


def test_differencing_handles_linear_trend():
    t = np.arange(3000, dtype=float)
    rng = np.random.default_rng(1)
    values = 0.05 * t + rng.normal(0, 0.2, 3000)
    model = ArimaForecaster(input_length=48, horizon=12)
    model.fit(values[:2400], values[2400:2700])
    x, y = make_windows(values[2700:], 48, 12, stride=12)
    prediction = model.predict(x)
    # forecasts continue the trend rather than flat-lining
    assert nrmse(y.ravel(), prediction.ravel()) < nrmse(
        y.ravel(), np.repeat(x[:, -1:], 12, axis=1).ravel())


def test_seasonal_phase_uses_positions():
    t = np.arange(2000, dtype=float)
    values = np.sin(2 * np.pi * t / 50)
    model = ArimaForecaster(input_length=50, horizon=25, seasonal_period=50,
                            orders=((1, 0, 0),))
    model.fit(values[:1500], values[1500:1700])
    x, y = make_windows(values[1700:], 50, 25, stride=25)
    aligned_positions = 1700 + np.arange(0, len(values) - 1700 - 75 + 1, 25,
                                         dtype=float)
    aligned = model.predict(x, positions=aligned_positions)
    misaligned = model.predict(x, positions=aligned_positions + 25)
    assert nrmse(y.ravel(), aligned.ravel()) < nrmse(y.ravel(),
                                                     misaligned.ravel())


def test_aic_prefers_smaller_models_on_white_noise():
    rng = np.random.default_rng(2)
    values = rng.normal(0, 1, 3000)
    model = ArimaForecaster(input_length=48, horizon=8, fourier_terms=0)
    model.fit(values[:2400], values[2400:2700])
    p, d, q = model.order
    assert d == 0  # white noise needs no differencing
    assert p <= 2


def test_too_short_training_rejected():
    model = ArimaForecaster(input_length=24, horizon=8)
    with pytest.raises(ValueError):
        model.fit(np.arange(3.0), np.arange(2.0))


def test_huge_seasonal_period_disables_fourier():
    model = ArimaForecaster(seasonal_period=43_200)
    assert model.fourier_terms == 0


def test_predictions_do_not_explode():
    rng = np.random.default_rng(3)
    values = 100 + rng.normal(0, 1, 2000).cumsum() * 0.05
    model = ArimaForecaster(input_length=48, horizon=24)
    model.fit(values[:1500], values[1500:1700])
    x, _ = make_windows(values[1700:], 48, 24, stride=24)
    prediction = model.predict(x)
    assert np.all(np.isfinite(prediction))
    assert np.abs(prediction - values.mean()).max() < 50 * values.std()


def _seasonal_model_and_windows():
    rng = np.random.default_rng(3)
    t = np.arange(2000)
    values = np.sin(2 * np.pi * t / 96) + 0.1 * rng.normal(size=2000)
    model = ArimaForecaster(input_length=48, horizon=12, seasonal_period=96)
    model.fit(values[:1500], values[1500:1700])
    x, _ = make_windows(values[1700:], 48, 12, stride=12)
    positions = 1700 + np.arange(len(x)) * 12.0
    return model, x, positions


def test_design_memo_returns_the_computed_bytes_read_only(monkeypatch):
    """A second predict over the same ticks takes both designs from the
    memo: the forecasts keep their bytes, and the designs cannot be
    written through."""
    from repro.forecasting import arima

    monkeypatch.setattr(arima, "_DESIGNS", arima.ContentMemo(size=4))
    model, x, positions = _seasonal_model_and_windows()
    first = model.predict(x, positions)
    assert len(arima._DESIGNS) == 2
    designs = [design for design, _ in
               arima._DESIGNS._values._entries.values()]
    monkeypatch.setattr(arima, "_fourier_design", None)  # a miss would fail
    assert model.predict(x, positions).tobytes() == first.tobytes()
    for design in designs:
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
    d = model.order[1]
    ticks = (positions[:, None] + d + np.arange(48 - d)[None, :]).ravel()
    assert designs[0].tobytes() == _fourier_design(ticks, 96, 2).tobytes()


def test_a_pickled_model_carries_no_design():
    import pickle

    model, x, positions = _seasonal_model_and_windows()
    before = len(pickle.dumps(model))
    first = model.predict(x, positions)
    assert len(pickle.dumps(model)) == before
    restored = pickle.loads(pickle.dumps(model))
    assert restored.predict(x, positions).tobytes() == first.tobytes()
