"""ARIMA with Fourier exogenous terms and AIC order selection (Section 3.4).

The model is AR-I-MA(p, d, q) fitted with the Hannan-Rissanen two-stage
regression (a long autoregression supplies innovation estimates, then AR
and MA coefficients are estimated jointly by least squares), plus Fourier
sin/cos pairs of the seasonal period as exogenous regressors to model long
seasonality, exactly as the paper configures Arima.  The (p, d, q) order is
selected by the Akaike Information Criterion.

Forecasting is window-based: the fitted recursion is re-anchored on each
input window, so the model can be queried with decompressed test windows
like every other forecaster.  Fourier phases need the absolute tick index
of each window, which the evaluation pipeline passes via ``positions``;
without it the seasonal profile is aligned to phase zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forecasting.base import Forecaster
from repro.memo import ContentMemo
from repro.registry import register_model

_DEFAULT_ORDERS = tuple(
    (p, d, q) for p in (1, 2, 3) for d in (0, 1) for q in (0, 1)
)


def _is_stationary(ar: np.ndarray) -> bool:
    """True when the AR polynomial's roots all lie outside the unit circle."""
    if len(ar) == 0:
        return True
    # characteristic polynomial 1 - phi_1 z - ... - phi_p z^p
    roots = np.roots(np.concatenate([[-c for c in ar[::-1]], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0 + 1e-6)) if roots.size else True


@dataclass(frozen=True)
class _FittedArima:
    order: tuple[int, int, int]
    constant: float
    ar: np.ndarray
    ma: np.ndarray
    fourier: np.ndarray  # (2K,) coefficients: [a1, b1, a2, b2, ...]
    sigma2: float
    aic: float


def _fourier_design(positions: np.ndarray, period: int, terms: int
                    ) -> np.ndarray:
    """Fourier columns sin/cos(2 pi k t / period) for k = 1..terms."""
    if terms == 0:
        return np.empty((len(positions), 0))
    t = np.asarray(positions, dtype=np.float64)
    columns = []
    for k in range(1, terms + 1):
        angle = 2.0 * np.pi * k * t / period
        columns.append(np.sin(angle))
        columns.append(np.cos(angle))
    return np.column_stack(columns)


def _read_only_design(ticks: np.ndarray, period: int, terms: int
                      ) -> np.ndarray:
    design = _fourier_design(ticks, period, terms)
    design.flags.writeable = False
    return design


#: Fourier designs of recent prediction ticks.  Every grid cell of one
#: dataset forecasts the same test windows, so ``predict`` asks for the
#: same design again and again.  Module state, not model state, so it is
#: never pickled with a model; the arrays are read-only, so a hit returns
#: the computed bytes.  A cell asks for two designs (in-window and future
#: ticks) per (dataset, stride); four keeps two such sets warm.
_DESIGNS = ContentMemo(size=4)


def _stage1_innovations(w: np.ndarray, long_lag: int) -> np.ndarray:
    """Innovation estimates from the Hannan-Rissanen long autoregression."""
    n = len(w)
    rows = np.column_stack([np.ones(n - long_lag)]
                           + [w[long_lag - i:n - i] for i in range(1, long_lag + 1)])
    coefficients, *_ = np.linalg.lstsq(rows, w[long_lag:], rcond=None)
    innovations = np.zeros(n)
    innovations[long_lag:] = w[long_lag:] - rows @ coefficients
    return innovations


def _fit_order_shared(w: np.ndarray, order: tuple[int, int, int],
                      innovations: np.ndarray | None,
                      fourier_full: np.ndarray, terms: int
                      ) -> tuple[float, np.ndarray, float] | None:
    """Stage-2 regression for one order over precomputed shared inputs.

    :meth:`ArimaForecaster._select_order` evaluates every candidate order
    against work shared across orders: the differenced series ``w``, the
    stage-1 innovation estimates (identical for every order with the same
    ``(d, long_lag)`` because the long autoregression ignores ``p`` and
    ``q``), and the full Fourier design over all of ``positions`` — sliced
    per order instead of recomputed, which is byte-identical to the
    per-order reference because the angle arithmetic is elementwise and
    ``np.sin``/``np.cos`` are value-deterministic (pinned by the
    equivalence tests).  Stationarity is NOT checked here; the caller
    defers it so ``np.roots`` runs only on candidates that could actually
    win selection.  Returns ``(aic, coefficients, sigma2)`` or None.
    """
    p, d, q = order
    n = len(w)
    start = max(p, q, 10 if q else p)
    target = w[start:]
    design = [np.ones(len(target))]
    design += [w[start - i:n - i] for i in range(1, p + 1)]
    design += [innovations[start - j:n - j] for j in range(1, q + 1)]
    columns = np.column_stack(design + ([fourier_full[start:]] if terms else []))
    coefficients, *_ = np.linalg.lstsq(columns, target, rcond=None)
    residuals = target - columns @ coefficients
    sigma2 = float(np.mean(residuals ** 2))
    if not np.isfinite(sigma2) or sigma2 <= 0:
        return None
    k = columns.shape[1] + 1  # + variance
    aic = len(target) * np.log(sigma2) + 2 * k
    return float(aic), coefficients, sigma2


@register_model("Arima", uses_positions=True, paper=True)
class ArimaForecaster(Forecaster):
    """AIC-selected ARIMA(p, d, q) with Fourier seasonal regressors."""

    name = "Arima"
    #: forecasts are phase-anchored by the absolute tick of each window
    uses_positions = True

    def __init__(self, input_length: int = 96, horizon: int = 24,
                 seed: int = 0, seasonal_period: int = 0,
                 fourier_terms: int = 2,
                 orders: tuple[tuple[int, int, int], ...] = _DEFAULT_ORDERS
                 ) -> None:
        super().__init__(input_length, horizon, seed)
        self.seasonal_period = int(seasonal_period)
        # Fourier terms only make sense with a usable period.
        self.fourier_terms = fourier_terms if 1 < self.seasonal_period <= 4096 else 0
        self.orders = orders
        self._model: _FittedArima | None = None

    def fit(self, train: np.ndarray, validation: np.ndarray) -> None:
        """Select the AIC-best order on the training series."""
        train = np.asarray(train, dtype=np.float64)
        value_range = float(np.ptp(train)) or 1.0
        self._clip = (float(train.min()) - 2.0 * value_range,
                      float(train.max()) + 2.0 * value_range)
        best = self._select_order(train)
        if best is None:
            raise ValueError("Arima: training series too short for any order")
        self._model = best
        self._fitted = True

    def _select_order(self, train: np.ndarray) -> _FittedArima | None:
        """Candidate-order sweep with per-d work shared across orders.

        The per-order reference loop (``repro.reference.ReferenceArima``)
        redoes, for every order: the differencing, the stage-1 long
        autoregression, and the Fourier design.  All three depend only on
        ``d`` (the long AR also on ``long_lag``, which is constant for
        small ``p + q``), so they are computed once per key here and
        reused — the exact same arrays flow into the exact same
        stage-2 calls, so every candidate's coefficients and AIC are
        byte-identical to the reference.  The stationarity check is
        deferred: candidates are sorted by ``(aic, submission index)`` and
        walked until the first stationary one, which reproduces the
        reference's strict ``<`` first-wins selection while running
        ``np.roots`` on one candidate in the common case instead of twelve.
        """
        period = max(self.seasonal_period, 1)
        terms = self.fourier_terms
        diffs: dict[int, np.ndarray] = {}
        fouriers: dict[int, np.ndarray] = {}
        stage1: dict[tuple[int, int], np.ndarray] = {}
        candidates: list[tuple[float, int, np.ndarray, float,
                               tuple[int, int, int]]] = []
        for index, order in enumerate(self.orders):
            p, d, q = order
            if d not in diffs:
                diffs[d] = np.diff(train, d) if d else train
                positions = np.arange(d, len(train), dtype=np.float64)
                fouriers[d] = _fourier_design(positions, period, terms)
            w = diffs[d]
            n = len(w)
            if n <= max(p, q, 1) + 2 * (p + q + 2 * terms + 1):
                continue
            innovations = None
            if q > 0:
                long_lag = max(10, p + q + 3)
                if n <= long_lag + 5:
                    continue
                key = (d, long_lag)
                if key not in stage1:
                    stage1[key] = _stage1_innovations(w, long_lag)
                innovations = stage1[key]
            shared = _fit_order_shared(w, order, innovations, fouriers[d], terms)
            if shared is not None:
                aic, coefficients, sigma2 = shared
                candidates.append((aic, index, coefficients, sigma2, order))
        for aic, _, coefficients, sigma2, order in sorted(
                candidates, key=lambda entry: (entry[0], entry[1])):
            p, _, q = order
            ar = coefficients[1:1 + p]
            if _is_stationary(ar):
                return _FittedArima(order, float(coefficients[0]), ar,
                                    coefficients[1 + p:1 + p + q],
                                    coefficients[1 + p + q:], sigma2, aic)
        return None

    @property
    def order(self) -> tuple[int, int, int]:
        """The AIC-selected (p, d, q) order."""
        self._check_fitted()
        return self._model.order

    def _innovations(self, model: _FittedArima, differenced: np.ndarray,
                     base: np.ndarray) -> np.ndarray:
        """In-window CSS innovations of ``differenced`` (B, m).

        ``base`` holds each tick's deterministic part (constant plus
        Fourier terms).  The AR part of the filter has no recurrence (it
        only reads the observed ``differenced``), so it vectorizes across
        t.  Each element still sees the scalar recursion's exact addition
        order: base, then AR terms in lag order, then MA terms in lag order.
        """
        p, _, q = model.order
        batch, m = differenced.shape
        innovations = np.zeros((batch, m))
        start = max(p, q)
        if m > start:
            partial = base[:, start:].copy()
            for i in range(1, p + 1):
                partial += model.ar[i - 1] * differenced[:, start - i:m - i]
            if q == 0:
                innovations[:, start:] = differenced[:, start:] - partial
            else:
                for t in range(start, m):
                    prediction = partial[:, t - start].copy()
                    for j in range(1, q + 1):
                        prediction += model.ma[j - 1] * innovations[:, t - j]
                    innovations[:, t] = differenced[:, t] - prediction
        return innovations

    def predict(self, windows: np.ndarray,
                positions: np.ndarray | None = None) -> np.ndarray:
        """Re-anchor the fitted recursion on each window and forecast."""
        self._check_fitted()
        windows = self._check_windows(windows)
        model = self._model
        p, d, q = model.order
        batch = len(windows)
        if positions is None:
            positions = np.zeros(batch)
        positions = np.asarray(positions, dtype=np.float64)
        differenced = np.diff(windows, d, axis=1) if d else windows.copy()
        m = differenced.shape[1]
        period = max(self.seasonal_period, 1)

        def deterministic(ticks: np.ndarray) -> np.ndarray:
            out = np.full(ticks.shape, model.constant)
            if self.fourier_terms:
                terms = self.fourier_terms
                flat = _DESIGNS.get(
                    ticks.ravel(), (period, terms),
                    lambda t: _read_only_design(t, period, terms))
                out = out + (flat @ model.fourier).reshape(ticks.shape)
            return out

        # In-window innovations: filter the recursion over the window.
        ticks = positions[:, None] + d + np.arange(m)[None, :]
        innovations = self._innovations(model, differenced,
                                        deterministic(ticks))

        # Recursive h-step forecast with future innovations set to zero.
        history = np.concatenate([differenced, np.zeros((batch, self.horizon))],
                                 axis=1)
        errors = np.concatenate([innovations, np.zeros((batch, self.horizon))],
                                axis=1)
        future_ticks = positions[:, None] + d + m + np.arange(self.horizon)[None, :]
        future_base = deterministic(future_ticks)
        for h in range(self.horizon):
            t = m + h
            prediction = future_base[:, h].copy()
            for i in range(1, p + 1):
                prediction += model.ar[i - 1] * history[:, t - i]
            for j in range(1, q + 1):
                prediction += model.ma[j - 1] * errors[:, t - j]
            history[:, t] = prediction
        forecast_differenced = history[:, m:]

        # Integrate the differences back to the original scale.
        result = forecast_differenced
        if d:
            for level in range(d, 0, -1):
                anchor = np.diff(windows, level - 1, axis=1)[:, -1]
                result = anchor[:, None] + np.cumsum(result, axis=1)
        # Clamp to a sane envelope around the training range; distorted
        # inputs must never produce runaway forecasts.
        return np.clip(result, *self._clip)
