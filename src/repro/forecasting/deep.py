"""Shared plumbing for the autograd-based forecasters.

All five deep models (DLinear, GRU, NBeats, Transformer, Informer) follow
the same recipe from Section 3.4: standard-scale using training statistics,
build sliding windows, train with Adam + early stopping (patience 3), and
predict in batches.  Subclasses only provide the network itself, and may
override :meth:`DeepForecaster.train_step` with a closed-form gradient.

Only the windows a fit trains and validates on are built: their start
indices are drawn first, with the generator calls that subsampling every
built window made (:func:`~repro.forecasting.windows.drawn_windows`).

Training and prediction run on the fused kernels of
:mod:`repro.forecasting.nn.kernels`, the engine's default on every thread.
The unfused reference twin of each model lives in :mod:`repro.reference`.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.forecasting.base import Forecaster
from repro.forecasting.nn.layers import Module
from repro.forecasting.nn.tensor import Tensor
from repro.forecasting.nn.train import (fit_model, graph_step,
                                        predict_in_batches)
from repro.forecasting.scaling import StandardScaler
from repro.forecasting.windows import drawn_windows, window_count


class DeepForecaster(Forecaster):
    """Base class handling scaling, windowing, and the training loop."""

    def __init__(self, input_length: int = 96, horizon: int = 24, seed: int = 0,
                 epochs: int = 15, batch_size: int = 32,
                 max_train_windows: int = 1500,
                 max_validation_windows: int = 400,
                 learning_rate: float = 3e-3, patience: int = 6) -> None:
        super().__init__(input_length, horizon, seed)
        self.epochs = epochs
        self.batch_size = batch_size
        self.max_train_windows = max_train_windows
        self.max_validation_windows = max_validation_windows
        # The paper trains with Adam at lr 1e-3; these compact CPU models use
        # a slightly higher rate and longer patience to converge in the far
        # smaller update budget.
        self.learning_rate = learning_rate
        self.patience = patience
        self._scaler = StandardScaler()
        self._network: Module | None = None
        self.validation_history: list[float] = []

    @abstractmethod
    def build_network(self, rng: np.random.Generator) -> Module:
        """Construct the model; called once at the start of fit()."""

    @abstractmethod
    def forward(self, batch: np.ndarray) -> Tensor:
        """Run the network on a batch of :meth:`prepare_windows` rows."""

    def prepare_windows(self, x: np.ndarray) -> np.ndarray:
        """Precompute per-window features once, before batching.

        ``x`` holds scaled windows of shape (B, input_length).  Must be
        row-independent (row i of the output depends only on row i of the
        input) so that batching over prepared rows stays byte-identical to
        preparing each batch on the fly.
        """
        return x

    def fit(self, train: np.ndarray, validation: np.ndarray) -> None:
        """Scale, draw the kept windows, then train on them.

        The kept windows' start indices are drawn before any window is
        built (:func:`~repro.forecasting.windows.drawn_windows`): first at
        most ``max_train_windows`` training starts, then at most
        ``max_validation_windows`` validation starts, with the same
        ``rng`` calls in the same order as building every window and
        subsampling it, so the rows, the network's initial weights and
        the batch order are unchanged.
        """
        rng = np.random.default_rng(self.seed)
        self._scaler.fit(train)
        scaled = self._scaler.transform(train)
        x, y = drawn_windows(scaled, self.input_length, self.horizon,
                             self.max_train_windows, rng)
        if len(validation) >= self.input_length + self.horizon:
            x_val, y_val = drawn_windows(
                self._scaler.transform(validation), self.input_length,
                self.horizon, self.max_validation_windows, rng)
        else:  # degenerate split: validate on the last tenth of training
            count = window_count(len(scaled), self.input_length,
                                 self.horizon)
            tail = np.arange(count - max(count // 10, 1), count)
            x_val, y_val = drawn_windows(
                scaled, self.input_length, self.horizon,
                self.max_validation_windows, rng, starts=tail)
        self._train_on_windows(x, y, x_val, y_val, rng)

    def train_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> None:
        """Set every parameter's gradient of the MSE on one batch: the
        graph's forward, loss and ``backward`` unless a model overrides
        it with a closed form."""
        graph_step(self.forward, batch_x, batch_y)

    def _train_on_windows(self, x, y, x_val, y_val, rng) -> None:
        """Build the network and train it on the drawn windows."""
        self._network = self.build_network(rng)
        self.validation_history = fit_model(
            self._network, self.forward, self.prepare_windows(x), y,
            self.prepare_windows(x_val), y_val, rng,
            epochs=self.epochs, batch_size=self.batch_size,
            patience=self.patience, learning_rate=self.learning_rate,
            step=self.train_step)
        self._fitted = True

    def predict(self, windows: np.ndarray,
                positions: np.ndarray | None = None) -> np.ndarray:
        self._check_fitted()
        windows = self._check_windows(windows)
        scaled = self._scaler.transform(windows)
        outputs = predict_in_batches(self.forward, self._network,
                                     self.prepare_windows(scaled))
        return self._scaler.inverse_transform(outputs)
