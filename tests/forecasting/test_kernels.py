"""Kernel/scalar equivalence suite for the forecasting hot path.

Every deep model routes its forward/backward through the fused kernels in
``repro.forecasting.nn.kernels``, and ARIMA shares per-d work across
candidate orders; the original per-op / per-order code is each model's
reference twin in ``repro.reference`` (``make_forecaster``).  These tests
pin each registered model to its twin in the strongest form:
byte-identical forecasts (and validation histories, and selected ARIMA
orders) across synthetic datasets and compression error bounds, plus a
hypothesis property for the CSS innovation recursion and a pin of the
Fourier slice-stability the ARIMA kernel relies on.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.compression import PMC
from repro.datasets import synthetic
from repro.forecasting import make
from repro.forecasting.arima import _FittedArima, _fourier_design
from repro.forecasting.nn import kernels
from repro.forecasting.nn.tensor import no_grad

INPUT, HORIZON = 24, 8


def twin(name, production, **kwargs):
    """The registered model ``name`` if ``production``, else its twin."""
    if production:
        return make(name, **kwargs)
    return reference.make_forecaster(name, **kwargs)


DEEP_FACTORIES = {
    "DLinear": lambda flag: twin(
        "DLinear", flag, input_length=INPUT, horizon=HORIZON, kernel=9,
        epochs=6),
    # below the window count, so train and validation windows are drawn
    "DLinear-drawn": lambda flag: twin(
        "DLinear", flag, input_length=INPUT, horizon=HORIZON, kernel=9,
        epochs=4, max_train_windows=200, max_validation_windows=50),
    "GRU": lambda flag: twin(
        "GRU", flag, input_length=INPUT, horizon=HORIZON, hidden=8, epochs=3,
        max_train_windows=150),
    "NBeats": lambda flag: twin(
        "NBeats", flag, input_length=INPUT, horizon=HORIZON, hidden=16,
        blocks=2, layers=2, epochs=4),
    "Transformer": lambda flag: twin(
        "Transformer", flag, input_length=INPUT, horizon=HORIZON, epochs=2,
        label_length=8, max_train_windows=100),
    "Informer": lambda flag: twin(
        "Informer", flag, input_length=INPUT, horizon=HORIZON, epochs=2,
        label_length=8, max_train_windows=100),
}

DATASET_GENERATORS = [synthetic.ettm1, synthetic.solar]
#: None = raw series; numbers = PMC error bounds applied to the series,
#: whose piecewise-constant reconstructions historically stress both the
#: autograd paths (flat gradients) and ARIMA's stationarity rejection
BOUNDS = [None, 0.1]


def training_series(generator, bound):
    series = generator(length=700).target_series
    if bound is not None:
        series = PMC().compress(series, bound).decompressed
    return series.values


def forecast_windows(values):
    tail = values[-120:]
    starts = range(0, len(tail) - (INPUT + HORIZON), 5)
    windows = np.stack([tail[i:i + INPUT] for i in starts])
    positions = np.array([len(values) - 120 + i for i in starts],
                         dtype=np.float64)
    return windows, positions


@pytest.mark.parametrize("generator", DATASET_GENERATORS,
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("bound", BOUNDS, ids=["raw", "eps0.1"])
@pytest.mark.parametrize("name", sorted(DEEP_FACTORIES))
def test_deep_models_byte_identical(name, generator, bound):
    values = training_series(generator, bound)
    train, validation = values[:550], values[550:]
    windows, _ = forecast_windows(values)
    outputs = {}
    for flag in (True, False):
        forecaster = DEEP_FACTORIES[name](flag)
        forecaster.fit(train, validation)
        outputs[flag] = (forecaster.predict(windows).tobytes(),
                         forecaster.validation_history)
    assert outputs[True][0] == outputs[False][0]
    assert outputs[True][1] == outputs[False][1]


@pytest.mark.parametrize("generator", DATASET_GENERATORS,
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("bound", BOUNDS, ids=["raw", "eps0.1"])
def test_arima_byte_identical(generator, bound):
    values = training_series(generator, bound)
    train, validation = values[:550], values[550:]
    windows, positions = forecast_windows(values)
    outputs = {}
    for flag in (True, False):
        forecaster = twin("Arima", flag, input_length=INPUT,
                          horizon=HORIZON, seasonal_period=96)
        forecaster.fit(train, validation)
        outputs[flag] = (forecaster.order, forecaster._model.aic,
                         forecaster.predict(windows, positions).tobytes())
    assert outputs[True] == outputs[False]


def test_fourier_design_slice_stable():
    """The ARIMA kernel slices one precomputed Fourier design per d where
    the reference recomputes it from ``positions[start:]``; equality of the
    produced bits for every start is the assumption that makes the shared
    design byte-identical."""
    for period, terms in ((96, 2), (24, 3), (7, 1)):
        positions = np.arange(0, 1500, dtype=np.float64)
        full = _fourier_design(positions, period, terms)
        for start in (1, 2, 3, 7, 10, 11, 13):
            sliced = _fourier_design(positions[start:], period, terms)
            assert full[start:].tobytes() == sliced.tobytes()


def _arima_pair(model: _FittedArima, input_length: int):
    pair = []
    for flag in (True, False):
        forecaster = twin("Arima", flag, input_length=input_length,
                          horizon=HORIZON, seasonal_period=0)
        forecaster._model = model
        forecaster._fitted = True
        forecaster._clip = (-1e12, 1e12)
        pair.append(forecaster)
    return pair


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(0, 3),
    d=st.integers(0, 1),
    q=st.integers(0, 1),
    constant=st.floats(-1.0, 1.0),
    coefficients=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
    data=st.data(),
)
def test_css_recursion_property(p, d, q, constant, coefficients, data):
    """The vectorized in-window innovation filter is byte-identical to the
    scalar recursion for arbitrary (p, d, q) and window contents."""
    model = _FittedArima(
        order=(p, d, q), constant=constant,
        ar=np.asarray(coefficients[:p]), ma=np.asarray(coefficients[3:3 + q]),
        fourier=np.empty(0), sigma2=1.0, aic=0.0)
    length = 16
    rows = data.draw(st.integers(1, 4))
    values = data.draw(st.lists(
        st.floats(-100.0, 100.0), min_size=rows * length,
        max_size=rows * length))
    windows = np.asarray(values, dtype=np.float64).reshape(rows, length)
    kernel, scalar = _arima_pair(model, length)
    assert (kernel.predict(windows).tobytes()
            == scalar.predict(windows).tobytes())


def _dlinear_gradients(step, seed):
    """The four head gradients one training step sets, as bytes."""
    model = make("DLinear", input_length=INPUT, horizon=HORIZON, kernel=9)
    rng = np.random.default_rng(seed)
    model._network = model.build_network(rng)
    rows = model.prepare_windows(rng.normal(size=(32, INPUT)))
    step(model, rows, rng.normal(size=(32, HORIZON)))
    network = model._network
    return [p.grad.tobytes() for p in (
        network.trend_head.weight, network.trend_head.bias,
        network.remainder_head.weight, network.remainder_head.bias)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dlinear_closed_form_gradients_equal_the_graph(seed):
    """The graph-free step sets the bytes the unfused graph's forward,
    loss and ``backward`` set."""
    from repro.forecasting.nn.train import graph_step

    def unfused(model, rows, target):
        with kernels.use(False):
            graph_step(model.forward, rows, target)

    def closed_form(model, rows, target):
        model.train_step(rows, target)

    assert (_dlinear_gradients(closed_form, seed)
            == _dlinear_gradients(unfused, seed))


def test_dlinear_builds_no_fused_node_when_a_graph_is_built():
    """Outside ``no_grad`` DLinear's forward runs its Linear heads, so a
    graph through it reaches every head parameter."""
    model = make("DLinear", input_length=INPUT, horizon=HORIZON, kernel=9)
    rng = np.random.default_rng(0)
    model._network = model.build_network(rng)
    rows = model.prepare_windows(rng.normal(size=(4, INPUT)))
    prediction = model.forward(rows)
    assert prediction.requires_grad
    with no_grad():
        fused = model.forward(rows)
    assert not fused.requires_grad
    assert fused.data.tobytes() == prediction.data.tobytes()


def test_metered_dlinear_training_sees_the_graph_gradients():
    """With metrics on, the per-epoch gradient norms the loop records are
    the same whether the step ran in closed form or through the graph."""
    from repro.obs import metrics

    values = training_series(synthetic.ettm1, None)
    norms = {}
    for flag in (True, False):
        registry = metrics.enable(metrics.MetricsRegistry())
        try:
            DEEP_FACTORIES["DLinear"](flag).fit(values[:550], values[550:])
        finally:
            metrics.disable()
        norms[flag] = registry.snapshot()["histograms"][
            "train.epoch_grad_norm"]
    assert norms[True]["count"] > 0
    assert norms[True] == norms[False]


def test_fused_kernels_are_the_default_on_new_threads():
    """Batcher and pool threads train and predict on the fused path
    without entering ``kernels.use``."""
    seen = []
    thread = threading.Thread(target=lambda: seen.append(kernels.enabled()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [True]
