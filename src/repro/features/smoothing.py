"""Holt linear-trend smoothing parameters (tsfeatures' alpha / beta).

The ``beta`` characteristic appears among the paper's Table 4 correlates.
The parameters are estimated by a coarse-to-fine grid search minimizing the
one-step-ahead sum of squared errors, which is robust and dependency-free.
"""

from __future__ import annotations

import numpy as np


def _holt_sse(values: np.ndarray, alphas: np.ndarray, betas: np.ndarray
              ) -> np.ndarray:
    """One-step-ahead SSE of every (alpha, beta) cell in one recursion.

    The cells advance together through the series, each in the same
    float64 operation order as a single-cell recursion, so every entry is
    the SSE that cell alone would accumulate (overflow to inf and NaN
    included).
    """
    level = np.full(len(alphas), values[0])
    trend = np.full(len(alphas), values[1] - values[0])
    sse = np.zeros(len(alphas))
    keep_alpha = 1.0 - alphas
    keep_beta = 1.0 - betas
    for value in values[1:]:
        forecast = level + trend
        error = value - forecast
        sse += error * error
        new_level = alphas * value + keep_alpha * forecast
        trend = betas * (new_level - level) + keep_beta * trend
        level = new_level
    return sse


def _best_cell(best: tuple[float, float, float], sse: np.ndarray,
               alphas: np.ndarray, betas: np.ndarray
               ) -> tuple[float, float, float]:
    """Fold the cells in order with strict ``<``: ties keep the earlier
    cell, and inf or NaN never displace a finite best."""
    for cell_sse, alpha, beta in zip(sse, alphas, betas):
        if cell_sse < best[0]:
            best = (cell_sse, alpha, beta)
    return best


def holt_parameters(values: np.ndarray, max_points: int = 500
                    ) -> tuple[float, float]:
    """Estimate Holt's (alpha, beta) on at most ``max_points`` points."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 4:
        return float("nan"), float("nan")
    if len(values) > max_points:
        stride = len(values) // max_points
        values = values[::stride][:max_points]
    grid = np.linspace(0.05, 0.95, 7)
    # alpha-major cell order, as the nested grid loops would visit them
    alphas, betas = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    best = _best_cell((float("inf"), 0.5, 0.1),
                      _holt_sse(values, alphas, betas), alphas, betas)
    # refine around the best cell
    _, alpha0, beta0 = best
    fine_alpha = np.clip(np.linspace(alpha0 - 0.1, alpha0 + 0.1, 5), 0.01, 0.99)
    fine_beta = np.clip(np.linspace(beta0 - 0.1, beta0 + 0.1, 5), 0.01, 0.99)
    alphas = np.repeat(fine_alpha, len(fine_beta))
    betas = np.tile(fine_beta, len(fine_alpha))
    best = _best_cell(best, _holt_sse(values, alphas, betas), alphas, betas)
    return float(best[1]), float(best[2])
