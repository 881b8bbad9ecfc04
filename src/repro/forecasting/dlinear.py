"""DLinear (Zeng et al., AAAI 2023).

The model decomposes each input window into a moving-average trend and a
remainder, applies one linear layer to each component, and sums the two
forecasts.  Its simplicity is the point: the paper uses it both as a strong
baseline (best model on ETTm1 and Weather) and, in Section 4.4.1, as the
model whose trend/remainder split explains sensitivity to compression.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.deep import DeepForecaster
from repro.forecasting.nn import kernels
from repro.forecasting.nn.layers import Linear, Module
from repro.forecasting.nn.tensor import Tensor, building_graph
from repro.registry import register_model

DEFAULT_KERNEL = 25  # moving-average window from the DLinear paper


def moving_average_split(windows: np.ndarray, kernel: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Split windows (B, L) into (trend, remainder) via edge-padded MA."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim == 1:
        windows = windows[None, :]
    pad_left = (kernel - 1) // 2
    pad_right = kernel - 1 - pad_left
    padded = np.concatenate([
        np.repeat(windows[:, :1], pad_left, axis=1),
        windows,
        np.repeat(windows[:, -1:], pad_right, axis=1),
    ], axis=1)
    cumulative = np.cumsum(padded, axis=1)
    cumulative = np.concatenate([np.zeros((len(windows), 1)), cumulative], axis=1)
    trend = (cumulative[:, kernel:] - cumulative[:, :-kernel]) / kernel
    return trend, windows - trend


class _DLinearNetwork(Module):
    def __init__(self, input_length: int, horizon: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.trend_head = Linear(input_length, horizon, rng)
        self.remainder_head = Linear(input_length, horizon, rng)

    def forward(self, trend: Tensor, remainder: Tensor) -> Tensor:
        if kernels.enabled() and not building_graph():
            return Tensor(kernels.fused_dlinear(
                trend.data, remainder.data, self.trend_head,
                self.remainder_head))
        return self.trend_head(trend) + self.remainder_head(remainder)


@register_model("DLinear", deep=True, paper=True)
class DLinearForecaster(DeepForecaster):
    """Decomposition + two linear heads."""

    name = "DLinear"

    def __init__(self, input_length: int = 96, horizon: int = 24, seed: int = 0,
                 kernel: int = DEFAULT_KERNEL, **kwargs) -> None:
        kwargs.setdefault("epochs", 40)
        kwargs.setdefault("max_train_windows", 3000)
        super().__init__(input_length, horizon, seed, **kwargs)
        if kernel < 2:
            raise ValueError(f"moving-average kernel must be >= 2, got {kernel}")
        self.kernel = kernel

    def build_network(self, rng: np.random.Generator) -> Module:
        return _DLinearNetwork(self.input_length, self.horizon, rng)

    def prepare_windows(self, x: np.ndarray) -> np.ndarray:
        # The split is row-independent, so decomposing the whole window set
        # once and slicing per batch is byte-identical to splitting each
        # batch inside the training loop — and removes the dominant
        # per-step cost (the cumsum decomposition) from the hot path.
        trend, remainder = moving_average_split(x, self.kernel)
        return np.concatenate([trend, remainder], axis=1)

    def train_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> None:
        """Closed-form head gradients on fused kernels, else the graph.

        :func:`~repro.forecasting.nn.kernels.dlinear_mse_gradients` sets
        the same gradients as the graph's forward, loss and ``backward``;
        under ``kernels.use(False)`` (the reference twin) the graph runs.
        """
        if not kernels.enabled():
            super().train_step(batch_x, batch_y)
            return
        length = self.input_length
        kernels.dlinear_mse_gradients(
            batch_x[:, :length], batch_x[:, length:], batch_y,
            self._network.trend_head, self._network.remainder_head)

    def forward(self, batch: np.ndarray) -> Tensor:
        """Run both heads on prepared ``[trend | remainder]`` rows."""
        length = self.input_length
        return self._network.forward(Tensor(batch[:, :length]),
                                     Tensor(batch[:, length:]))
