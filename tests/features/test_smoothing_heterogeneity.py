"""Tests for Holt parameters and ARCH characteristics."""

import numpy as np
import pytest

from repro.features.heterogeneity import arch_acf, arch_r2
from repro.features.smoothing import holt_parameters


def test_holt_on_strong_trend_prefers_high_beta_region():
    t = np.arange(300, dtype=float)
    rng = np.random.default_rng(0)
    trending = 0.5 * t + rng.normal(0, 0.1, 300)
    alpha, beta = holt_parameters(trending)
    assert 0.0 < alpha < 1.0
    assert 0.0 < beta < 1.0


def test_holt_on_noise_prefers_low_alpha():
    rng = np.random.default_rng(1)
    noise = rng.normal(0, 1, 400)
    alpha, _ = holt_parameters(noise)
    assert alpha < 0.5  # heavy smoothing wins on pure noise


def test_holt_short_series_gives_nan():
    alpha, beta = holt_parameters(np.array([1.0, 2.0]))
    assert np.isnan(alpha) and np.isnan(beta)


def test_holt_subsamples_long_series():
    rng = np.random.default_rng(2)
    long_series = rng.normal(0, 1, 50_000)
    alpha, beta = holt_parameters(long_series)  # must return quickly
    assert np.isfinite(alpha) and np.isfinite(beta)


def garch_like(n=3000, seed=4):
    rng = np.random.default_rng(seed)
    values = np.zeros(n)
    sigma = 1.0
    for i in range(1, n):
        sigma = np.sqrt(0.1 + 0.8 * sigma ** 2 * min(values[i - 1] ** 2, 4))
        values[i] = sigma * rng.normal()
    return values


def test_arch_statistics_larger_for_heteroskedastic_series():
    rng = np.random.default_rng(5)
    homoskedastic = rng.normal(0, 1, 3000)
    hetero = garch_like()
    assert arch_acf(hetero) > arch_acf(homoskedastic)
    assert arch_r2(hetero) > arch_r2(homoskedastic)


def test_arch_r2_bounded():
    rng = np.random.default_rng(6)
    values = rng.normal(0, 1, 500)
    assert 0.0 <= arch_r2(values) <= 1.0


def test_arch_short_series_gives_nan():
    assert np.isnan(arch_acf(np.arange(5.0)))
    assert np.isnan(arch_r2(np.arange(5.0)))
