"""Tests for the shared training loop and early stopping."""

import numpy as np
import pytest

from repro.forecasting.nn import (Linear, Module, Tensor, evaluate, fit_model,
                                  kernels, predict_in_batches)

#: fused kernels (the default) and the unfused reference graph
ENGINES = pytest.mark.parametrize("fused", [True, False],
                                  ids=["fused", "unfused"])


class TinyNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.layer = Linear(4, 2, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.layer(x)


def make_problem(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 4))
    true_weight = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0], [-1.0, 1.0]])
    y = x @ true_weight + rng.normal(0, 0.01, (n, 2))
    return x, y


def test_training_reduces_validation_loss():
    x, y = make_problem()
    rng = np.random.default_rng(1)
    net = TinyNet(rng)
    forward = lambda batch: net(Tensor(batch))
    history = fit_model(net, forward, x[:150], y[:150], x[150:], y[150:],
                        rng, epochs=30, batch_size=16, learning_rate=0.05)
    assert min(history) < history[0] / 5


@ENGINES
def test_early_stopping_restores_best_parameters(fused):
    x, y = make_problem()
    rng = np.random.default_rng(2)
    net = TinyNet(rng)
    forward = lambda batch: net(Tensor(batch))
    with kernels.use(fused):
        history = fit_model(net, forward, x[:150], y[:150], x[150:], y[150:],
                            rng, epochs=100, batch_size=16, patience=2)
        final_loss = evaluate(forward, net, x[150:], y[150:])
    assert final_loss <= min(history) + 1e-9


def test_evaluate_matches_manual_mse():
    x, y = make_problem(50)
    rng = np.random.default_rng(3)
    net = TinyNet(rng)
    forward = lambda batch: net(Tensor(batch))
    loss = evaluate(forward, net, x, y)
    manual = float(np.mean((net(Tensor(x)).data - y) ** 2))
    assert loss == pytest.approx(manual)


def test_predict_in_batches_matches_single_pass():
    x, y = make_problem(100)
    rng = np.random.default_rng(4)
    net = TinyNet(rng)
    forward = lambda batch: net(Tensor(batch))
    batched = predict_in_batches(forward, net, x, batch_size=7)
    single = net(Tensor(x)).data
    assert np.allclose(batched, single)


def test_empty_training_set_rejected():
    rng = np.random.default_rng(5)
    net = TinyNet(rng)
    with pytest.raises(ValueError):
        fit_model(net, lambda b: net(Tensor(b)), np.empty((0, 4)),
                  np.empty((0, 2)), np.empty((0, 4)), np.empty((0, 2)), rng)


@ENGINES
def test_training_is_deterministic_given_rng_state(fused):
    x, y = make_problem()

    def run():
        rng = np.random.default_rng(7)
        net = TinyNet(rng)
        forward = lambda batch: net(Tensor(batch))
        with kernels.use(fused):
            fit_model(net, forward, x[:150], y[:150], x[150:], y[150:], rng,
                      epochs=5, batch_size=16)
        return net.layer.weight.data.copy()

    assert np.array_equal(run(), run())
