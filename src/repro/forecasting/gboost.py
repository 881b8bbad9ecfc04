"""Gradient boosting over regression trees (Friedman, 2001).

With squared loss, each boosting stage fits a tree to the current
residuals and the ensemble prediction adds ``learning_rate`` times each
tree's output to the running estimate.  Trees are multi-output, so one
ensemble predicts the whole 24-step horizon directly.

Both the GBoost *forecaster* of Section 3.4 and the TFE-prediction model
behind the SHAP analysis of Section 4.3.1 use this class.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster
from repro.forecasting.scaling import StandardScaler
from repro.forecasting.trees import RegressionTree
from repro.forecasting.windows import drawn_windows
from repro.registry import register_model


class GradientBoostingRegressor:
    """Plain gradient-boosted trees with squared loss."""

    def __init__(self, n_estimators: int = 60, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 5,
                 subsample: float = 0.8, seed: int = 0) -> None:
        if n_estimators < 1:
            raise ValueError(f"need at least one estimator, got {n_estimators}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_prediction: np.ndarray | None = None
        self.trees: list[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray,
            x_val: np.ndarray | None = None,
            y_val: np.ndarray | None = None,
            patience: int = 5) -> "GradientBoostingRegressor":
        """Fit stage-wise; optionally early-stop on a validation set."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        rng = np.random.default_rng(self.seed)
        self.base_prediction = y.mean(axis=0)
        self.trees = []
        current = np.tile(self.base_prediction, (len(y), 1))
        best_val = float("inf")
        best_n = 0
        bad = 0
        val_current = None
        if x_val is not None:
            y_val = np.asarray(y_val, dtype=np.float64)
            if y_val.ndim == 1:
                y_val = y_val[:, None]
            val_current = np.tile(self.base_prediction, (len(y_val), 1))
        for _ in range(self.n_estimators):
            residuals = y - current
            if self.subsample < 1.0:
                keep = rng.random(len(x)) < self.subsample
                if keep.sum() < 2 * self.min_samples_leaf:
                    keep = np.ones(len(x), dtype=bool)
            else:
                keep = np.ones(len(x), dtype=bool)
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(x[keep], residuals[keep])
            self.trees.append(tree)
            current = current + self.learning_rate * tree.predict(x)
            if val_current is not None:
                val_current = val_current + self.learning_rate * tree.predict(x_val)
                val_loss = float(np.mean((y_val - val_current) ** 2))
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_n = len(self.trees)
                    bad = 0
                else:
                    bad += 1
                    if bad >= patience:
                        break
        if val_current is not None and best_n:
            self.trees = self.trees[:best_n]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble prediction for feature rows ``x``."""
        if self.base_prediction is None:
            raise RuntimeError("predict() called before fit()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        out = np.tile(self.base_prediction, (len(x), 1))
        for tree in self.trees:
            out = out + self.learning_rate * tree.predict(x)
        return out


@register_model("GBoost", paper=True)
class GBoostForecaster(Forecaster):
    """Direct multi-horizon forecasting with gradient-boosted trees."""

    name = "GBoost"

    def __init__(self, input_length: int = 96, horizon: int = 24, seed: int = 0,
                 n_estimators: int = 60, max_depth: int = 3,
                 max_train_windows: int = 3000) -> None:
        super().__init__(input_length, horizon, seed)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_train_windows = max_train_windows
        self._scaler = StandardScaler()
        self._model: GradientBoostingRegressor | None = None

    def fit(self, train: np.ndarray, validation: np.ndarray) -> None:
        self._scaler.fit(train)
        rng = np.random.default_rng(self.seed)
        x, y = drawn_windows(self._scaler.transform(train),
                             self.input_length, self.horizon,
                             self.max_train_windows, rng)
        x_val = y_val = None
        if len(validation) >= self.input_length + self.horizon:
            x_val, y_val = drawn_windows(self._scaler.transform(validation),
                                         self.input_length, self.horizon,
                                         500, rng)
        self._model = GradientBoostingRegressor(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            seed=self.seed).fit(x, y, x_val, y_val)
        self._fitted = True

    def predict(self, windows: np.ndarray,
                positions: np.ndarray | None = None) -> np.ndarray:
        self._check_fitted()
        windows = self._check_windows(windows)
        scaled = self._scaler.transform(windows)
        return self._scaler.inverse_transform(self._model.predict(scaled))
