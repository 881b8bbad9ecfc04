"""Scalar reference implementations of the vectorized codecs, models and
characteristics.

Every grid codec and forecaster has one production path: the array
kernels in ``repro.compression.kernels``, the codec modules themselves,
``repro.forecasting.nn.kernels`` and the ARIMA order sweep.  The
per-point, per-order and per-op code those kernels replaced lives here,
as the executable specification the kernels are pinned to.  Each
reference class subclasses its production class and overrides only the
hook that differs — segmentation for PMC, Swing and CAMEO; block
statistics, block encoding, block cost and Huffman packing for SZ and
LFZip; the order sweep and the in-window innovation filter for ARIMA —
so it returns the same result type through the slow path.  LFZip's
NLMS weight sweep has the list loop ``lfzip_update_weights`` as its twin.
The deep models' reference twins train and predict on the unfused
autograd graph (``repro.forecasting.nn.kernels.use(False)``), the generic
engine the fused kernels and DLinear's graph-free step replay node for
node.  The window builders have the per-window stacking loops
``make_windows`` and ``paired_windows``, and drawing windows before
building them has ``subsample_windows`` over the built set.  The feature
catalogue's hot characteristics have function twins with the production
signatures: ``hurst`` (one rescaled-range chunk at a time),
``holt_parameters`` (one ``holt_sse`` pass per grid cell) and
``flat_spots`` (one label at a time).  The API schema's one-pass array
check has the per-element walk ``validate`` as its twin.  The
equivalence suites (``tests/compression/test_kernels.py``,
``test_cameo.py``, ``test_lfzip.py``, ``tests/encoding/test_huffman.py``,
``tests/forecasting/test_kernels.py``, ``test_windows.py``,
``tests/features/test_kernels.py``, ``tests/api/test_schema.py``) assert
byte or bit identity (the same verdict and error, for the schema), and
``repro-eval bench`` and ``benchmarks/perf`` time each kernel against
its reference.

The classes are not registered, so registry queries, CLI choices and
schema enums only ever see the production codecs and models, and
``compute_all`` only ever runs the kernels.  Tests and benchmarks are the
only importers; ``make_compressor("PMC")`` and ``make_forecaster("GRU")``
build the reference twin of a registered codec or model by name.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.api.errors import ValidationError
from repro.api.schema import _TYPE_CHECKS, SCHEMAS

from repro.compression import lfzip, sz
from repro.compression.base import Compressor
from repro.compression.cameo import ACF_WEIGHT, Cameo
from repro.compression.lfzip import LFZip
from repro.compression.pmc import PMC, _store_float32
from repro.compression.swing import Swing
from repro.compression.sz import SZ
from repro.compression.timestamps import MAX_SEGMENT_LENGTH
from repro.encoding import huffman, varint
from repro.forecasting.arima import (ArimaForecaster, _FittedArima,
                                     _fourier_design, _is_stationary,
                                     _stage1_innovations)
from repro.forecasting.base import Forecaster
from repro.forecasting.dlinear import DLinearForecaster, moving_average_split
from repro.forecasting.gru import GRUForecaster
from repro.forecasting.informer import InformerForecaster
from repro.forecasting.nbeats import NBeatsForecaster
from repro.forecasting.nn import kernels
from repro.forecasting.nn.tensor import Tensor
from repro.forecasting.transformer import TransformerForecaster


# --- Huffman: the per-bit loops on every input


def huffman_encode(symbols: Sequence[int]) -> bytes:
    """:func:`repro.encoding.huffman.encode` through ``BitWriter`` only."""
    header, codes = huffman._header(symbols)
    return header + huffman._pack_bits(symbols, codes)


def huffman_decode(data: bytes) -> list[int]:
    """:func:`repro.encoding.huffman.decode` through ``BitReader`` only."""
    count, codes, offset = huffman._read_header(data)
    return huffman._unpack_bits(data[offset:], codes, count)


# --- segment filters


class ReferencePMC(PMC):
    """PMC-Mean with the per-point window loop."""

    @staticmethod
    def _segments(values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float]]:
        """Per-point segmentation loop."""
        lengths: list[int] = []
        means: list[float] = []

        window_start = 0
        base = 0.0  # prefix sum at the window start
        total = 0.0  # running prefix sum over the whole array (never reset)
        lo = -math.inf  # greatest lower bound imposed by any window point
        hi = math.inf  # least upper bound

        def close(end: int) -> None:
            """Emit the window [window_start, end) as one mean segment."""
            length = end - window_start
            mean = (total - base) / length
            lengths.append(length)
            means.append(_store_float32(mean, lo, hi))

        for i, value in enumerate(values):
            allowed = error_bound * abs(value)
            new_lo = max(lo, value - allowed)
            new_hi = min(hi, value + allowed)
            new_total = total + value
            count = i - window_start + 1
            # The close predicate compares the window *sum* against the
            # count-scaled bounds (one multiply instead of a divide) —
            # the exact form the kernels and the streaming encoder use.
            diff = new_total - base
            window_full = count > MAX_SEGMENT_LENGTH
            if window_full or diff < new_lo * count or diff > new_hi * count:
                close(i)
                window_start = i
                base = total
                lo = value - allowed
                hi = value + allowed
            else:
                lo, hi = new_lo, new_hi
            total = new_total
        close(len(values))
        return lengths, means


class ReferenceSwing(Swing):
    """Swing filter with the per-point cone loop."""

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float], list[float]]:
        """Per-point segmentation loop."""
        segments: list[tuple[int, float, float]] = []

        anchor_index = 0
        anchor_value = float(values[0])
        slope_lo = -math.inf
        slope_hi = math.inf

        for i in range(1, len(values)):
            value = float(values[i])
            allowed = error_bound * abs(value)
            run = i - anchor_index
            new_lo = max(slope_lo, (value - allowed - anchor_value) / run)
            new_hi = min(slope_hi, (value + allowed - anchor_value) / run)
            window_full = run + 1 > MAX_SEGMENT_LENGTH
            if window_full or new_lo > new_hi:
                self._fit(values, error_bound, anchor_index, i,
                          slope_lo, slope_hi, segments)
                anchor_index = i
                anchor_value = value
                slope_lo = -math.inf
                slope_hi = math.inf
            else:
                slope_lo, slope_hi = new_lo, new_hi
        self._fit(values, error_bound, anchor_index, len(values),
                  slope_lo, slope_hi, segments)
        return ([s[0] for s in segments], [s[1] for s in segments],
                [s[2] for s in segments])


class ReferenceCameo(Cameo):
    """CAMEO with the per-point cone and aggregate-budget loop."""

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float], list[float]]:
        """Per-point segmentation loop."""
        segments: list[tuple[int, float, float]] = []
        weight = ACF_WEIGHT * error_bound

        anchor_index = 0
        anchor_value = float(values[0])
        slope_lo = -math.inf
        slope_hi = math.inf
        sum_dev = 0.0
        sum_mass = 0.0
        sum_run = 0.0

        for i in range(1, len(values)):
            value = float(values[i])
            allowed = error_bound * abs(value)
            run = i - anchor_index
            # the same float64 folds, in the same order, as the kernel's
            # seeded cumsums
            new_dev = sum_dev + (value - anchor_value)
            new_mass = sum_mass + abs(value)
            new_run = sum_run + run
            budget = weight * new_mass
            new_lo = max(slope_lo, (value - allowed - anchor_value) / run,
                         (new_dev - budget) / new_run)
            new_hi = min(slope_hi, (value + allowed - anchor_value) / run,
                         (new_dev + budget) / new_run)
            window_full = run + 1 > MAX_SEGMENT_LENGTH
            if window_full or new_lo > new_hi:
                self._fit(values, error_bound, anchor_index, i,
                          slope_lo, slope_hi, segments)
                anchor_index = i
                anchor_value = value
                slope_lo = -math.inf
                slope_hi = math.inf
                sum_dev = sum_mass = sum_run = 0.0
            else:
                slope_lo, slope_hi = new_lo, new_hi
                sum_dev, sum_mass, sum_run = new_dev, new_mass, new_run
        self._fit(values, error_bound, anchor_index, len(values),
                  slope_lo, slope_hi, segments)
        return ([s[0] for s in segments], [s[1] for s in segments],
                [s[2] for s in segments])


# --- SZ: per-point lattice quantization


def sz_encode_block(block: np.ndarray, tolerance: np.ndarray,
                    step: float, anchor: float, predictor: int
                    ) -> tuple[list[int], list[float], list[float]]:
    """Per-point reference with the same lattice semantics as the kernel."""
    symbols: list[int] = []
    outliers: list[float] = []
    recon: list[float] = []
    limit = int(sz._LATTICE_LIMIT)
    mean_mode = predictor == sz.MEAN
    base = anchor
    t_prev = 0
    d_prev = 0
    for k in range(len(block)):
        value = float(block[k])
        if step > 0.0:
            # clamp before rounding: identical to the kernel's rint + clip
            # for every finite quotient, and it keeps round() finite
            quotient = (value - base) / step
            if quotient > sz._LATTICE_LIMIT:
                quotient = sz._LATTICE_LIMIT
            elif quotient < -sz._LATTICE_LIMIT:
                quotient = -sz._LATTICE_LIMIT
            t = round(quotient)  # round-half-even, same as np.rint
            t = min(max(t, -limit), limit)
        else:
            t = 0
        fitted = base + t * step
        if mean_mode:
            code = t
        elif predictor == sz.LINEAR:
            code = (t - t_prev) - d_prev
        else:
            code = t - t_prev
        if (abs(code) < sz._CODE_LIMIT
                and abs(fitted - value) <= tolerance[k]):
            symbols.append(varint.zigzag_encode(code) + 1)
            recon.append(fitted)
            d_prev = t - t_prev
            t_prev = t
        else:
            stored = float(np.float32(value))
            symbols.append(sz._ESCAPE_SYMBOL)
            recon.append(stored)
            outliers.append(stored)
            if not mean_mode:
                base = stored
            t_prev = 0
            d_prev = 0
    return symbols, outliers, recon


def sz_block_cost(symbols: list[int], num_outliers: int) -> int:
    """Reference bit cost — the same integer as ``sz._block_cost_kernel``."""
    bits = 32 * num_outliers + len(symbols)
    for symbol in symbols:
        bits += max(symbol, 1).bit_length()
    return bits


class ReferenceSZ(SZ):
    """SZ with per-block statistics and the per-point block encoder."""

    _encode_block = staticmethod(sz_encode_block)
    _block_cost = staticmethod(sz_block_cost)
    _encode_symbols = staticmethod(huffman_encode)

    def _block_stats(self, values: np.ndarray, error_bound: float
                     ) -> tuple[np.ndarray, list[float], list[float]]:
        """Each block's float32 step and mean, one block at a time."""
        steps: list[float] = []
        means: list[float] = []
        for begin in range(0, len(values), self.block_size):
            block = values[begin:begin + self.block_size]
            steps.append(float(np.float32(
                2.0 * error_bound * float(np.min(np.abs(block))))))
            means.append(float(np.float32(np.mean(block))))
        return error_bound * np.abs(values), steps, means


# --- LFZip: per-point NLMS prediction


def lfzip_encode_block(block: np.ndarray, tolerance: np.ndarray,
                       step: float, carry: float, weights
                       ) -> tuple[list[int], list[float], list[float],
                                  list[float], list[bool]]:
    """Per-point reference with the same lattice semantics as the kernel."""
    symbols: list[int] = []
    outliers: list[float] = []
    recon: list[float] = []
    t_values: list[float] = []
    escaped: list[bool] = []
    limit = int(lfzip._LATTICE_LIMIT)
    base = carry
    history = [0.0] * lfzip.ORDER
    for k in range(len(block)):
        value = float(block[k])
        if step > 0.0:
            quotient = (value - base) / step
            if quotient > lfzip._LATTICE_LIMIT:
                quotient = lfzip._LATTICE_LIMIT
            elif quotient < -lfzip._LATTICE_LIMIT:
                quotient = -lfzip._LATTICE_LIMIT
            t = float(min(max(round(quotient), -limit), limit))
        else:
            t = 0.0
        fitted = base + t * step
        prediction = 0.0
        for j in range(lfzip.ORDER):
            prediction += weights[j] * history[j]
        code = t - round(prediction)
        if (abs(code) < lfzip._CODE_LIMIT
                and abs(fitted - value) <= tolerance[k]):
            symbols.append(varint.zigzag_encode(int(code)) + 1)
            recon.append(fitted)
            t_values.append(t)
            escaped.append(False)
            history = [t] + history[:-1]
        else:
            stored = float(np.float32(value))
            symbols.append(lfzip._ESCAPE_SYMBOL)
            recon.append(stored)
            outliers.append(stored)
            t_values.append(0.0)
            escaped.append(True)
            base = stored
            history = [0.0] * lfzip.ORDER
    return symbols, outliers, recon, t_values, escaped


def lfzip_update_weights(weights, t_values, escaped) -> tuple[float, ...]:
    """:func:`repro.compression.lfzip.update_weights` over Python lists."""
    w = list(weights)
    history = [0.0] * lfzip.ORDER
    for t, escape in zip(t_values, escaped):
        if escape:
            history = [0.0] * lfzip.ORDER
            continue
        t = float(t)
        prediction = 0.0
        for j in range(lfzip.ORDER):
            prediction += w[j] * history[j]
        error = t - prediction
        denom = 1.0
        for j in range(lfzip.ORDER):
            denom += history[j] * history[j]
        gain = lfzip.MU * error / denom
        for j in range(lfzip.ORDER):
            w[j] += gain * history[j]
        history = [t] + history[:-1]
    if not all(math.isfinite(x) for x in w):
        return lfzip.INIT_WEIGHTS
    return tuple(w)


class ReferenceLFZip(LFZip):
    """LFZip with the per-point block encoder."""

    _encode_block = staticmethod(lfzip_encode_block)
    _encode_symbols = staticmethod(huffman_encode)


#: reference class per registered codec name
REFERENCES: dict[str, type[Compressor]] = {
    cls.name: cls for cls in (ReferencePMC, ReferenceSwing, ReferenceCameo,
                              ReferenceSZ, ReferenceLFZip)}


def make_compressor(name: str, **kwargs) -> Compressor:
    """Scalar reference twin of the registered codec ``name``."""
    try:
        factory = REFERENCES[name]
    except KeyError:
        raise KeyError(
            f"no scalar reference for compression method {name!r}; "
            f"choose one of {sorted(REFERENCES)}") from None
    return factory(**kwargs)


# --- ARIMA: one full fit per candidate order, per-tick innovation filter


def arima_fit_order(w: np.ndarray, positions: np.ndarray,
                    order: tuple[int, int, int], period: int, terms: int
                    ) -> _FittedArima | None:
    """Both Hannan-Rissanen stages for one order, recomputed from scratch."""
    p, d, q = order
    burn = max(p, q, 1)
    n = len(w)
    if n <= burn + 2 * (p + q + 2 * terms + 1):
        return None
    # Stage 1: long AR to estimate innovations.
    if q > 0:
        long_lag = max(10, p + q + 3)
        if n <= long_lag + 5:
            return None
        innovations = _stage1_innovations(w, long_lag)
    else:
        innovations = np.zeros(n)
    # Stage 2: joint regression with AR lags, MA lags, and Fourier columns.
    start = max(p, q, 10 if q else p)
    target = w[start:]
    design = [np.ones(len(target))]
    design += [w[start - i:n - i] for i in range(1, p + 1)]
    design += [innovations[start - j:n - j] for j in range(1, q + 1)]
    fourier = _fourier_design(positions[start:], period, terms)
    columns = np.column_stack(design + ([fourier] if terms else []))
    coefficients, *_ = np.linalg.lstsq(columns, target, rcond=None)
    residuals = target - columns @ coefficients
    sigma2 = float(np.mean(residuals ** 2))
    if not np.isfinite(sigma2) or sigma2 <= 0:
        return None
    k = columns.shape[1] + 1  # + variance
    aic = len(target) * np.log(sigma2) + 2 * k
    ar = coefficients[1:1 + p]
    if not _is_stationary(ar):
        # Explosive AR recursions diverge over the forecast horizon; such
        # fits can appear on heavily-decompressed (piecewise-constant)
        # training data and are rejected like statsmodels does.
        return None
    ma = coefficients[1 + p:1 + p + q]
    fourier_coefficients = coefficients[1 + p + q:]
    return _FittedArima(order, float(coefficients[0]), ar, ma,
                        fourier_coefficients, sigma2, float(aic))


class ReferenceArima(ArimaForecaster):
    """ARIMA with the per-order sweep and the scalar innovation recursion."""

    def _select_order(self, train: np.ndarray) -> _FittedArima | None:
        """One full fit per order; strict ``<`` keeps the first best."""
        best: _FittedArima | None = None
        for order in self.orders:
            d = order[1]
            w = np.diff(train, d) if d else train
            positions = np.arange(d, len(train), dtype=np.float64)
            fitted = arima_fit_order(w, positions, order,
                                     max(self.seasonal_period, 1),
                                     self.fourier_terms)
            if fitted is not None and (best is None or fitted.aic < best.aic):
                best = fitted
        return best

    def _innovations(self, model: _FittedArima, differenced: np.ndarray,
                     base: np.ndarray) -> np.ndarray:
        """Per-tick CSS recursion, AR and MA terms together."""
        p, _, q = model.order
        batch, m = differenced.shape
        innovations = np.zeros((batch, m))
        start = max(p, q)
        for t in range(start, m):
            prediction = base[:, t].copy()
            for i in range(1, p + 1):
                prediction += model.ar[i - 1] * differenced[:, t - i]
            for j in range(1, q + 1):
                prediction += model.ma[j - 1] * innovations[:, t - j]
            innovations[:, t] = differenced[:, t] - prediction
        return innovations


# --- feature catalogue: per-chunk, per-cell and per-point loops


def hurst(values: np.ndarray) -> float:
    """:func:`repro.features.structure.hurst`, one chunk at a time."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 32:
        return float("nan")
    sizes = []
    rs = []
    size = 16
    while size <= n // 2:
        chunks = n // size
        ratios = []
        for c in range(chunks):
            chunk = values[c * size:(c + 1) * size]
            deviations = np.cumsum(chunk - chunk.mean())
            spread = float(deviations.max() - deviations.min())
            scale = float(chunk.std())
            if scale > 0:
                ratios.append(spread / scale)
        if ratios:
            sizes.append(size)
            rs.append(np.mean(ratios))
        size *= 2
    if len(sizes) < 2:
        return float("nan")
    slope = np.polyfit(np.log(sizes), np.log(rs), 1)[0]
    return float(slope)


def holt_sse(values: np.ndarray, alpha: float, beta: float) -> float:
    """One-step-ahead SSE of one (alpha, beta) cell, one point at a time."""
    level = values[0]
    trend = values[1] - values[0]
    sse = 0.0
    for value in values[1:]:
        forecast = level + trend
        error = value - forecast
        sse += error * error
        new_level = alpha * value + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return sse


def holt_parameters(values: np.ndarray, max_points: int = 500
                    ) -> tuple[float, float]:
    """:func:`repro.features.smoothing.holt_parameters`, one
    :func:`holt_sse` pass per grid cell."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 4:
        return float("nan"), float("nan")
    if len(values) > max_points:
        stride = len(values) // max_points
        values = values[::stride][:max_points]
    best = (float("inf"), 0.5, 0.1)
    grid = np.linspace(0.05, 0.95, 7)
    for alpha in grid:
        for beta in grid:
            sse = holt_sse(values, alpha, beta)
            if sse < best[0]:
                best = (sse, alpha, beta)
    # refine around the best cell
    _, alpha0, beta0 = best
    fine_alpha = np.clip(np.linspace(alpha0 - 0.1, alpha0 + 0.1, 5), 0.01, 0.99)
    fine_beta = np.clip(np.linspace(beta0 - 0.1, beta0 + 0.1, 5), 0.01, 0.99)
    for alpha in fine_alpha:
        for beta in fine_beta:
            sse = holt_sse(values, alpha, beta)
            if sse < best[0]:
                best = (sse, alpha, beta)
    return float(best[1]), float(best[2])


def flat_spots(values: np.ndarray, buckets: int = 10) -> float:
    """:func:`repro.features.structure.flat_spots`, one label at a time."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return float(len(values))
    edges = np.quantile(values, np.linspace(0, 1, buckets + 1)[1:-1])
    labels = np.searchsorted(edges, values, side="left")
    longest = current = 1
    for previous, label in zip(labels[:-1], labels[1:]):
        current = current + 1 if label == previous else 1
        longest = max(longest, current)
    return float(longest)


# --- API schema: one element at a time


def validate(value: Any, schema: dict, path: str = "$") -> None:
    """:func:`repro.api.schema.validate`, recursing once per element."""
    if "$ref" in schema:
        target = SCHEMAS.get(schema["$ref"])
        if target is None:
            raise ValidationError(f"unknown $ref {schema['$ref']!r}",
                                  key=path)
        validate(value, target, path)
        return
    if "enum" in schema:
        if value not in schema["enum"]:
            raise ValidationError(
                f"{path}: {value!r} not in {schema['enum']}", key=path)
        return
    kinds = schema.get("type")
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds or ())
    if kinds and not any(_TYPE_CHECKS[kind](value) for kind in kinds):
        raise ValidationError(
            f"{path}: expected {' or '.join(kinds)}, "
            f"got {type(value).__name__}", key=path)
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise ValidationError(f"{path}: missing required field "
                                      f"{name!r}", key=path)
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                validate(value[name], sub, f"{path}.{name}")
        if "values" in schema:
            for name, item in value.items():
                validate(item, schema["values"], f"{path}.{name}")
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]")


# --- windows: one slice per window, every window built


def make_windows(values: np.ndarray, input_length: int, horizon: int,
                 stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repro.forecasting.windows.make_windows`, one slice per row."""
    values = np.asarray(values, dtype=np.float64)
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    total = input_length + horizon
    if len(values) < total:
        raise ValueError(
            f"series of length {len(values)} is too short for windows of "
            f"{input_length}+{horizon}"
        )
    starts = np.arange(0, len(values) - total + 1, stride)
    inputs = np.stack([values[s:s + input_length] for s in starts])
    targets = np.stack([values[s + input_length:s + total] for s in starts])
    return inputs, targets


def paired_windows(input_values: np.ndarray, target_values: np.ndarray,
                   input_length: int, horizon: int, stride: int = 1
                   ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repro.forecasting.windows.paired_windows`, both halves of
    both series built."""
    input_values = np.asarray(input_values, dtype=np.float64)
    target_values = np.asarray(target_values, dtype=np.float64)
    if input_values.shape != target_values.shape:
        raise ValueError(
            f"aligned series must share a shape, got {input_values.shape} "
            f"vs {target_values.shape}"
        )
    inputs, _ = make_windows(input_values, input_length, horizon, stride)
    _, targets = make_windows(target_values, input_length, horizon, stride)
    return inputs, targets


def subsample_windows(inputs: np.ndarray, targets: np.ndarray, limit: int,
                      rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Randomly keep at most ``limit`` built windows: the build-all-then-
    subsample twin of :func:`repro.forecasting.windows.drawn_windows`."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if len(inputs) <= limit:
        return inputs, targets
    keep = rng.choice(len(inputs), size=limit, replace=False)
    keep.sort()
    return inputs[keep], targets[keep]


# --- deep models: the unfused autograd graph


class UnfusedEngine:
    """Mixin: train and predict a deep forecaster on the unfused graph.

    ``fit`` draws its windows as the production model does and trains
    through ``_train_on_windows``; every training step goes through the
    graph (:func:`repro.forecasting.nn.train.graph_step`).  Windows are
    not prepared ahead of batching; each model's ``forward`` sees the
    plain scaled windows.
    """

    def prepare_windows(self, x: np.ndarray) -> np.ndarray:
        return x

    def _train_on_windows(self, x, y, x_val, y_val, rng) -> None:
        with kernels.use(False):
            super()._train_on_windows(x, y, x_val, y_val, rng)

    def predict(self, windows: np.ndarray,
                positions: np.ndarray | None = None) -> np.ndarray:
        with kernels.use(False):
            return super().predict(windows, positions)


class ReferenceDLinear(UnfusedEngine, DLinearForecaster):
    """DLinear splitting each batch inside ``forward``."""

    def forward(self, batch: np.ndarray) -> Tensor:
        trend, remainder = moving_average_split(batch, self.kernel)
        return self._network.forward(Tensor(trend), Tensor(remainder))


class ReferenceGRU(UnfusedEngine, GRUForecaster):
    """GRU with one graph node per op of every cell."""


class ReferenceNBeats(UnfusedEngine, NBeatsForecaster):
    """N-BEATS with one graph node per layer op."""


class ReferenceTransformer(UnfusedEngine, TransformerForecaster):
    """Transformer on the unfused graph and per-parameter Adam."""


class ReferenceInformer(UnfusedEngine, InformerForecaster):
    """Informer on the unfused graph and per-parameter Adam."""


#: reference class per registered forecaster name
FORECASTER_REFERENCES: dict[str, type[Forecaster]] = {
    cls.name: cls for cls in (ReferenceArima, ReferenceDLinear, ReferenceGRU,
                              ReferenceNBeats, ReferenceTransformer,
                              ReferenceInformer)}


def make_forecaster(name: str, **kwargs) -> Forecaster:
    """Scalar reference twin of the registered forecaster ``name``."""
    try:
        factory = FORECASTER_REFERENCES[name]
    except KeyError:
        raise KeyError(
            f"no scalar reference for forecasting model {name!r}; "
            f"choose one of {sorted(FORECASTER_REFERENCES)}") from None
    return factory(**kwargs)
