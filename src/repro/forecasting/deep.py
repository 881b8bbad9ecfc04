"""Shared plumbing for the autograd-based forecasters.

All five deep models (DLinear, GRU, NBeats, Transformer, Informer) follow
the same recipe from Section 3.4: standard-scale using training statistics,
build sliding windows, train with Adam + early stopping (patience 3), and
predict in batches.  Subclasses only provide the network itself.

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
from repro.forecasting.nn.train import fit_model, predict_in_batches
from repro.forecasting.scaling import StandardScaler
from repro.forecasting.windows import make_windows, subsample_windows


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
        rng = np.random.default_rng(self.seed)
        self._scaler.fit(train)
        x, y = make_windows(self._scaler.transform(train),
                            self.input_length, self.horizon)
        if len(validation) >= self.input_length + self.horizon:
            x_val, y_val = make_windows(self._scaler.transform(validation),
                                        self.input_length, self.horizon)
        else:  # degenerate split: validate on a slice of training windows
            x_val, y_val = x[-max(len(x) // 10, 1):], y[-max(len(y) // 10, 1):]
        self._train_on_windows(x, y, x_val, y_val, rng)

    def _train_on_windows(self, x, y, x_val, y_val, rng) -> None:
        x, y = subsample_windows(x, y, self.max_train_windows, rng)
        x_val, y_val = subsample_windows(x_val, y_val,
                                         self.max_validation_windows, rng)
        self._network = self.build_network(rng)
        self.validation_history = fit_model(
            self._network, self.forward, self.prepare_windows(x), y,
            self.prepare_windows(x_val), y_val, rng,
            epochs=self.epochs, batch_size=self.batch_size,
            patience=self.patience, learning_rate=self.learning_rate)
        self._fitted = True

    def predict(self, windows: np.ndarray,
                positions: np.ndarray | None = None) -> np.ndarray:
        self._check_fitted()
        windows = self._check_windows(windows)
        scaled = self._scaler.transform(windows)
        outputs = predict_in_batches(self.forward, self._network,
                                     self.prepare_windows(scaled))
        return self._scaler.inverse_transform(outputs)
