"""Shared mini-batch training loop with early stopping (Section 3.4).

Every deep model trains the same way: Adam (lr 0.001, weight decay 0.0001),
mini-batches, and early stopping on the validation loss with patience 3,
restoring the best parameters.

One loop serves every model.  Per batch it clears the gradients, calls
the model's step hook to set them, and steps Adam.  The default hook,
:func:`graph_step`, runs forward, MSE loss and ``backward`` through the
autograd graph; a model whose gradients have a closed form passes a hook
that sets them without building a graph (DLinear's
:func:`~repro.forecasting.nn.kernels.dlinear_mse_gradients`).  Either
way the gradients land on the parameters before Adam reads them, so
gradient-norm metering sees them too.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from contextlib import nullcontext

import numpy as np

from repro.forecasting.nn import kernels
from repro.forecasting.nn.layers import Module
from repro.forecasting.nn.optim import Adam
from repro.forecasting.nn.tensor import Tensor, mse_loss, no_grad
from repro.obs import metrics as obs_metrics


def gradient_norm(parameters: list[Tensor]) -> float:
    """Global L2 norm over every parameter gradient (0.0 when none set)."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(parameter.grad ** 2))
    return float(np.sqrt(total))


def graph_step(forward: Callable[[np.ndarray], Tensor],
               batch_x: np.ndarray, batch_y: np.ndarray) -> None:
    """Set the MSE gradients of one batch through the autograd graph."""
    prediction = forward(batch_x)
    if kernels.enabled():
        loss = kernels.fused_mse_loss(prediction, batch_y)
    else:
        loss = mse_loss(prediction, batch_y)
    loss.backward()


def fit_model(model: Module,
              forward: Callable[[np.ndarray], Tensor],
              train_x: np.ndarray, train_y: np.ndarray,
              val_x: np.ndarray, val_y: np.ndarray,
              rng: np.random.Generator,
              epochs: int = 20,
              batch_size: int = 64,
              patience: int = 3,
              learning_rate: float = 1e-3,
              step: Callable[[np.ndarray, np.ndarray], None] | None = None
              ) -> list[float]:
    """Train ``model`` with ``forward(batch_x) -> prediction`` on MSE.

    ``step(batch_x, batch_y)`` sets the parameters' gradients for one
    batch (default: :func:`graph_step` over ``forward``).  Returns the
    per-epoch validation losses; the model ends up with the parameters of
    its best validation epoch.
    """
    if step is None:
        step = functools.partial(graph_step, forward)
    if len(train_x) == 0:
        raise ValueError("training requires at least one window")
    parameters = model.parameters()
    optimizer = Adam(parameters, learning_rate=learning_rate)
    best_loss = float("inf")
    best_state = model.state()
    bad_epochs = 0
    history: list[float] = []
    # Metric work (per-batch gradient norms included) is skipped entirely
    # when observability is off; the disabled path costs one flag check.
    metered = obs_metrics.enabled()
    for _ in range(epochs):
        model.train()
        order = rng.permutation(len(train_x))
        grad_norm = 0.0
        batches = 0
        for begin in range(0, len(order), batch_size):
            batch = order[begin:begin + batch_size]
            optimizer.zero_grad()
            step(train_x[batch], train_y[batch])
            if metered:
                grad_norm += gradient_norm(parameters)
                batches += 1
            optimizer.step()
        validation_loss = evaluate(forward, model, val_x, val_y, batch_size)
        history.append(validation_loss)
        if metered:
            obs_metrics.inc("train.epochs")
            if np.isfinite(validation_loss):
                obs_metrics.observe("train.epoch_val_loss", validation_loss)
            if batches:
                obs_metrics.observe("train.epoch_grad_norm", grad_norm / batches)
        if validation_loss < best_loss - 1e-9:
            best_loss = validation_loss
            best_state = model.state()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    model.load_state(best_state)
    model.eval()
    return history


def evaluate(forward: Callable[[np.ndarray], Tensor], model: Module,
             x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Mean squared error of ``forward`` over ``(x, y)`` without gradients."""
    if len(x) == 0:
        return float("nan")
    model.eval()
    total = 0.0
    with no_grad() if kernels.enabled() else nullcontext():
        for begin in range(0, len(x), batch_size):
            prediction = forward(x[begin:begin + batch_size]).data
            total += float(
                np.sum((prediction - y[begin:begin + batch_size]) ** 2))
    return total / y.size


def predict_in_batches(forward: Callable[[np.ndarray], Tensor], model: Module,
                       x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Run ``forward`` over ``x`` in chunks and return a plain array."""
    model.eval()
    with no_grad() if kernels.enabled() else nullcontext():
        outputs = [forward(x[begin:begin + batch_size]).data
                   for begin in range(0, len(x), batch_size)]
    return np.concatenate(outputs, axis=0)
