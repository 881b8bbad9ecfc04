"""Distribution-shift characteristics: the paper's top TFE predictors.

``max_kl_shift`` — the maximum Kullback-Leibler divergence between the
value distributions of consecutive sliding windows — is the paper's single
most important characteristic (Section 4.3.1).  ``max_level_shift`` and
``max_var_shift`` track the largest jumps in rolling mean and variance.

Following R ``tsfeatures``, windows slide one point at a time and each
shift compares the window ending at ``t`` with the adjacent window starting
at ``t``.  The KL divergence is computed between Gaussian fits of the two
windows (closed form), a vectorizable variant of tsfeatures' kernel-density
estimate that preserves its sensitivity to both mean and variance shifts.
"""

from __future__ import annotations

import numpy as np

from repro.features.rolling import rolling_mean, rolling_var

_VAR_FLOOR = 1e-12


def _shift_series(values: np.ndarray, width: int, statistic: str) -> np.ndarray:
    """Per-offset shift magnitude between adjacent windows of ``width``."""
    if statistic == "level":
        track = rolling_mean(values, width)
        return np.abs(track[width:] - track[:-width])
    if statistic == "variance":
        track = rolling_var(values, width)
        return np.abs(track[width:] - track[:-width])
    if statistic == "kl":
        return _kl_shift_series(values, width)
    raise ValueError(f"unknown shift statistic {statistic!r}")


def _kl_shift_series(values: np.ndarray, width: int,
                     bins: int = 10, alpha: float = 0.5) -> np.ndarray:
    """KL divergence between density estimates of adjacent windows.

    Like tsfeatures, each window's value distribution is estimated over a
    grid spanning the whole series' range; the estimate here is a smoothed
    histogram (additive ``alpha``), which keeps the divergence bounded even
    for the piecewise-constant windows that PMC produces.
    """
    low, high = float(values.min()), float(values.max())
    if high == low:
        return np.zeros(max(len(values) - 2 * width + 1, 1))
    edges = np.linspace(low, high, bins + 1)
    labels = np.clip(np.searchsorted(edges, values, side="right") - 1,
                     0, bins - 1)
    indicator = np.zeros((len(values), bins))
    indicator[np.arange(len(values)), labels] = 1.0
    cumulative = np.vstack([np.zeros(bins), np.cumsum(indicator, axis=0)])
    counts = cumulative[width:] - cumulative[:-width]  # per-window histograms
    densities = (counts + alpha) / (width + bins * alpha)
    p, q = densities[:-width], densities[width:]
    return np.sum(p * np.log(p / q), axis=1)


def max_shift(values: np.ndarray, width: int, statistic: str
              ) -> tuple[float, float]:
    """Largest ``statistic`` shift and the offset where it occurs.

    ``statistic`` is ``"kl"``, ``"level"`` or ``"variance"``; series
    shorter than two windows give ``(nan, nan)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2 * width:
        return float("nan"), float("nan")
    shifts = _shift_series(values, width, statistic)
    index = int(np.argmax(shifts))
    return float(shifts[index]), float(index + width)


def max_kl_shift(values: np.ndarray, width: int = 48) -> float:
    """Largest KL divergence between consecutive windows (MKLS)."""
    return max_shift(values, width, "kl")[0]


def time_kl_shift(values: np.ndarray, width: int = 48) -> float:
    """Offset at which the largest KL shift occurs."""
    return max_shift(values, width, "kl")[1]


def max_level_shift(values: np.ndarray, width: int = 48) -> float:
    """Largest jump of the rolling mean between consecutive windows (MLS)."""
    return max_shift(values, width, "level")[0]


def time_level_shift(values: np.ndarray, width: int = 48) -> float:
    """Offset at which the largest level shift occurs."""
    return max_shift(values, width, "level")[1]


def max_var_shift(values: np.ndarray, width: int = 48) -> float:
    """Largest jump of the rolling variance between consecutive windows (MVS)."""
    return max_shift(values, width, "variance")[0]


def time_var_shift(values: np.ndarray, width: int = 48) -> float:
    """Offset at which the largest variance shift occurs."""
    return max_shift(values, width, "variance")[1]
