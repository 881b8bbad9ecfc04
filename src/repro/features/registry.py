"""The 42 time-series characteristics analyzed in Section 4.3.1.

The paper extracts 42 characteristics with the R ``tsfeatures`` package,
covering shifts in distribution, autocorrelation structure, stationarity,
seasonality, and heteroskedasticity, plus the raw mean and variance that
appear in its Table 4.  :func:`compute_all` evaluates the full catalogue on
one series; :func:`relative_difference` produces the percentage deltas
between original and decompressed series that Tables 4/6 and Figure 5 are
built on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.features import (autocorr, decomposition, heterogeneity, shift,
                            smoothing, stationarity, structure)


@dataclass(frozen=True)
class _Context:
    """Per-series cache shared by all feature evaluations."""

    values: np.ndarray
    period: int
    shift_width: int
    dec: decomposition.Decomposition | None
    holt: tuple[float, float]
    #: (largest shift, its offset) per statistic, filled on first use
    shifts: dict[str, tuple[float, float]] = field(default_factory=dict)


def _build_context(values: np.ndarray, period: int,
                   shift_width: int | None) -> _Context:
    values = np.asarray(values, dtype=np.float64)
    if shift_width is None:
        # tsfeatures uses the seasonal period as the window when available;
        # clamp so very long periods (Wind's 43,200) stay tractable.
        shift_width = int(min(max(period, 10), 256))
    dec = None
    if len(values) >= 6:
        try:
            dec = decomposition.decompose(values, period)
        except (ValueError, ZeroDivisionError):
            dec = None
    return _Context(values, period, shift_width, dec,
                    smoothing.holt_parameters(values))


def _dec_feature(fn: Callable[[decomposition.Decomposition], float]
                 ) -> Callable[[_Context], float]:
    def wrapped(ctx: _Context) -> float:
        return fn(ctx.dec) if ctx.dec is not None else float("nan")
    return wrapped


def _shift_feature(statistic: str, which: int
                   ) -> Callable[[_Context], float]:
    """``max_*`` (``which=0``) or ``time_*`` (``which=1``) of one shift
    statistic; the pair shares one shift series per context."""
    def wrapped(ctx: _Context) -> float:
        if statistic not in ctx.shifts:
            ctx.shifts[statistic] = shift.max_shift(
                ctx.values, ctx.shift_width, statistic)
        return ctx.shifts[statistic][which]
    return wrapped


FEATURES: dict[str, Callable[[_Context], float]] = {
    # basic moments
    "mean": lambda c: float(np.mean(c.values)),
    "var": lambda c: float(np.var(c.values)),
    # distribution shifts between consecutive windows
    "max_kl_shift": _shift_feature("kl", 0),
    "time_kl_shift": _shift_feature("kl", 1),
    "max_level_shift": _shift_feature("level", 0),
    "time_level_shift": _shift_feature("level", 1),
    "max_var_shift": _shift_feature("variance", 0),
    "time_var_shift": _shift_feature("variance", 1),
    # autocorrelation structure
    "x_acf1": lambda c: autocorr.x_acf1(c.values),
    "x_acf10": lambda c: autocorr.x_acf10(c.values),
    "diff1_acf1": lambda c: autocorr.diff1_acf1(c.values),
    "diff1_acf10": lambda c: autocorr.diff1_acf10(c.values),
    "diff2_acf1": lambda c: autocorr.diff2_acf1(c.values),
    "diff2_acf10": lambda c: autocorr.diff2_acf10(c.values),
    "seas_acf1": lambda c: autocorr.seas_acf1(c.values, c.period),
    "x_pacf5": lambda c: autocorr.x_pacf5(c.values),
    "diff1x_pacf5": lambda c: autocorr.diff1x_pacf5(c.values),
    "diff2x_pacf5": lambda c: autocorr.diff2x_pacf5(c.values),
    "seas_pacf": lambda c: autocorr.seas_pacf(c.values, c.period),
    "firstzero_ac": lambda c: autocorr.firstzero_ac(c.values),
    # decomposition-based
    "trend": _dec_feature(decomposition.trend_strength),
    "seas_strength": _dec_feature(decomposition.seas_strength),
    "spike": _dec_feature(decomposition.spike),
    "linearity": _dec_feature(decomposition.linearity),
    "curvature": _dec_feature(decomposition.curvature),
    "peak": _dec_feature(decomposition.peak),
    "trough": _dec_feature(decomposition.trough),
    "e_acf1": _dec_feature(decomposition.e_acf1),
    "e_acf10": _dec_feature(decomposition.e_acf10),
    # stationarity
    "unitroot_kpss": lambda c: stationarity.unitroot_kpss(c.values),
    "unitroot_pp": lambda c: stationarity.unitroot_pp(c.values),
    # structural
    "entropy": lambda c: structure.spectral_entropy(c.values),
    "hurst": lambda c: structure.hurst(c.values),
    "stability": lambda c: structure.stability(c.values),
    "lumpiness": lambda c: structure.lumpiness(c.values),
    "nonlinearity": lambda c: structure.nonlinearity(c.values),
    "flat_spots": lambda c: structure.flat_spots(c.values),
    "crossing_points": lambda c: structure.crossing_points(c.values),
    # heteroskedasticity
    "arch_acf": lambda c: heterogeneity.arch_acf(c.values),
    "arch_r2": lambda c: heterogeneity.arch_r2(c.values),
    # Holt smoothing parameters
    "alpha": lambda c: c.holt[0],
    "beta": lambda c: c.holt[1],
}

FEATURE_NAMES = tuple(FEATURES)


def compute_all(values: np.ndarray, period: int = 0,
                shift_width: int | None = None) -> dict[str, float]:
    """Evaluate all 42 characteristics on one series.

    Characteristics that are undefined for the input (too short, constant,
    non-seasonal) come back as NaN rather than raising, so sweeps over many
    compressed variants never abort mid-way.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot compute characteristics of an empty series")
    ctx = _build_context(values, period, shift_width)
    out: dict[str, float] = {}
    for name, fn in FEATURES.items():
        try:
            out[name] = float(fn(ctx))
        except (ValueError, ZeroDivisionError, np.linalg.LinAlgError):
            out[name] = float("nan")
    return out


def relative_difference(original: dict[str, float],
                        transformed: dict[str, float]) -> dict[str, float]:
    """Per-characteristic relative difference in percent (Tables 4 and 6).

    ``100 * |transformed - original| / |original|``; characteristics whose
    original value is ~0 fall back to the absolute difference, and NaNs
    propagate.
    """
    out: dict[str, float] = {}
    for name in original:
        a = original[name]
        b = transformed.get(name, float("nan"))
        if not (np.isfinite(a) and np.isfinite(b)):
            out[name] = float("nan")
        elif abs(a) > 1e-9:
            out[name] = 100.0 * abs(b - a) / abs(a)
        else:
            out[name] = 100.0 * abs(b - a)
    return out
