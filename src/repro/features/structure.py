"""Structural characteristics: entropy, hurst, stability, lumpiness,
nonlinearity, flat spots, and crossing points."""

from __future__ import annotations

import numpy as np

from repro.features.rolling import tiled_means_vars


def spectral_entropy(values: np.ndarray) -> float:
    """Normalized Shannon entropy of the periodogram (0 = pure tone, 1 = noise)."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 4:
        return float("nan")
    centered = values - values.mean()
    if not np.any(centered):
        return float("nan")
    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    spectrum = spectrum[1:]  # drop the zero-frequency bin
    total = spectrum.sum()
    if total <= 0.0:
        return float("nan")
    p = spectrum / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum() / np.log(len(spectrum)))


def hurst(values: np.ndarray) -> float:
    """Hurst exponent via rescaled-range analysis over dyadic splits.

    Each chunk size reshapes the first ``chunks * size`` points into one
    row per chunk, so the per-chunk mean, cumulative deviation, range and
    standard deviation are axis reductions.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 32:
        return float("nan")
    sizes = []
    rs = []
    size = 16
    while size <= n // 2:
        chunks = values[:n // size * size].reshape(-1, size)
        deviations = np.cumsum(chunks - chunks.mean(axis=1, keepdims=True),
                               axis=1)
        spread = deviations.max(axis=1) - deviations.min(axis=1)
        scale = chunks.std(axis=1)
        kept = scale > 0
        if kept.any():
            sizes.append(size)
            rs.append(np.mean(spread[kept] / scale[kept]))
        size *= 2
    if len(sizes) < 2:
        return float("nan")
    slope = np.polyfit(np.log(sizes), np.log(rs), 1)[0]
    return float(slope)


def stability(values: np.ndarray, width: int = 10) -> float:
    """Variance of tiled (non-overlapping window) means."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2 * width:
        return float("nan")
    means, _ = tiled_means_vars(values, width)
    return float(np.var(means))


def lumpiness(values: np.ndarray, width: int = 10) -> float:
    """Variance of tiled (non-overlapping window) variances."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2 * width:
        return float("nan")
    _, variances = tiled_means_vars(values, width)
    return float(np.var(variances))


def nonlinearity(values: np.ndarray) -> float:
    """Terasvirta-style neglected-nonlinearity statistic.

    Regresses the series on its first two lags, then tests whether squares
    and cubes of the lags explain the residual; returns ``10 * R^2`` of the
    auxiliary regression scaled as in tsfeatures.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 10:
        return float("nan")
    scale = values.std()
    if scale == 0.0:
        return float("nan")
    z = (values - values.mean()) / scale
    y = z[2:]
    lag1, lag2 = z[1:-1], z[:-2]
    linear = np.column_stack([np.ones(len(y)), lag1, lag2])
    beta, *_ = np.linalg.lstsq(linear, y, rcond=None)
    residuals = y - linear @ beta
    ss_res = float(np.dot(residuals, residuals))
    if ss_res <= 0.0:
        return 0.0
    augmented = np.column_stack([
        linear, lag1 ** 2, lag1 * lag2, lag2 ** 2,
        lag1 ** 3, lag1 ** 2 * lag2, lag1 * lag2 ** 2, lag2 ** 3,
    ])
    beta_augmented, *_ = np.linalg.lstsq(augmented, residuals, rcond=None)
    explained = augmented @ beta_augmented
    r_squared = float(np.dot(explained, explained)) / ss_res
    return float(10.0 * min(max(r_squared, 0.0), 1.0))


def flat_spots(values: np.ndarray, buckets: int = 10) -> float:
    """Longest run of consecutive values inside one decile bucket."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return float(len(values))
    edges = np.quantile(values, np.linspace(0, 1, buckets + 1)[1:-1])
    labels = np.searchsorted(edges, values, side="left")
    # runs start at index 0 and wherever the label changes
    starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    bounds = np.concatenate(([0], starts, [len(labels)]))
    return float(np.diff(bounds).max())


def crossing_points(values: np.ndarray) -> float:
    """Number of times the series crosses its median."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return 0.0
    above = values > np.median(values)
    return float(np.count_nonzero(above[1:] != above[:-1]))
