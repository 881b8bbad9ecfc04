"""CAMEO-style autocorrelation-preserving line simplification.

CAMEO (Ruiyuan et al., see PAPERS.md) frames error-bounded compression
as greedy point elimination that bounds not just the pointwise
reconstruction error but the error *induced in downstream aggregate
statistics* — autocorrelation above all.  This implementation keeps the
repo's segment-filter vocabulary: a connected sweep grows one linear
segment at a time, and each candidate point contributes **two** linear
constraints on the segment slope ``s``:

* the Swing cone — ``|fit(k) - v_k| <= eps * |v_k|`` pointwise, and
* an aggregate-deviation budget — the running signed deviation of the
  line from the eliminated points must satisfy ``|s * A_i - B_i| <=
  W_i`` with ``A_i = sum(run_k)``, ``B_i = sum(v_k - anchor)`` and
  ``W_i = ACF_WEIGHT * eps * sum(|v_k|)``.  Bounding this drift bounds
  the perturbation of lag-window products, which is what keeps the
  reconstructed series' ACF close to the original's.

The first time the intersection empties the segment closes at the
previous point and the violator anchors the next one.  The vectorized
kernel (``kernels.cameo_chase``) performs the exact same float64 folds
as the scalar loop ``ReferenceCameo`` in ``repro/reference.py`` (which
folds the three running sums point by point) with seeded cumsums and
exact min/max envelopes, so the two are pinned byte-identical
(``tests/compression/test_cameo.py``).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.datasets.timeseries import TimeSeries
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")

# Absolute slack granted to coefficient rounding during verification.
_F32_SLACK = 1e-7

#: fraction of the pointwise budget granted to aggregate (ACF) drift
ACF_WEIGHT = 0.5


def _cone(values: np.ndarray, error_bound: float, i0: int, i1: int
          ) -> tuple[float, float]:
    """Pointwise slope cone keeping every point of ``[i0, i1)`` bounded."""
    anchor = float(values[i0])
    slope_lo, slope_hi = -math.inf, math.inf
    for i in range(i0 + 1, i1):
        value = float(values[i])
        allowed = error_bound * abs(value)
        run = i - i0
        slope_lo = max(slope_lo, (value - allowed - anchor) / run)
        slope_hi = min(slope_hi, (value + allowed - anchor) / run)
    return slope_lo, slope_hi


@register_compressor("CAMEO", lossy=True, grid=True,
                     description="ACF-preserving line simplification")
class Cameo(Compressor):
    """Greedy line simplification bounding pointwise and ACF error."""

    name = "CAMEO"
    is_lossy = True

    def __init__(self, acf_weight: float = ACF_WEIGHT) -> None:
        self.acf_weight = acf_weight

    def compress(self, series: TimeSeries, error_bound: float
                 ) -> CompressionResult:
        self._check_inputs(series, error_bound)
        lengths, slopes, intercepts = self._segments(series.values,
                                                     error_bound)
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            decompressed=self._reconstruct_series(series, lengths, slopes,
                                                  intercepts),
            compressed=gzip_bytes(self._serialize(
                series, lengths, slopes, intercepts)),
            num_segments=len(lengths),
        ))

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chunked cone∩aggregate scan plus one vectorized fit/verify pass."""
        lengths, cone_lo, cone_hi = kernels.cameo_chase(
            values, error_bound, self.acf_weight,
            timestamps.MAX_SEGMENT_LENGTH)
        starts = np.cumsum(lengths) - lengths
        with np.errstate(invalid="ignore"):
            slopes = np.where((lengths == 1) | ~np.isfinite(cone_lo),
                              0.0, (cone_lo + cone_hi) / 2.0)
        intercepts = values[starts]
        fitted = self._reconstruct(lengths, slopes, intercepts)
        allowed = (error_bound * np.abs(values)
                   + _F32_SLACK * np.maximum(1.0, np.abs(values)))
        drifted = np.abs(fitted - values) > allowed
        bad = np.logical_or.reduceat(drifted, starts) & (lengths > 1)
        if not bad.any():
            return lengths, slopes, intercepts
        out: list[tuple[int, float, float]] = []
        for i, start in enumerate(starts):
            if bad[i]:
                self._fit(values, error_bound, int(start),
                          int(start + lengths[i]),
                          float(cone_lo[i]), float(cone_hi[i]), out)
            else:
                out.append((int(lengths[i]), float(slopes[i]),
                            float(intercepts[i])))
        return (np.array([s[0] for s in out], dtype=np.int64),
                np.array([s[1] for s in out]),
                np.array([s[2] for s in out]))

    def _fit(self, values: np.ndarray, error_bound: float, i0: int, i1: int,
             slope_lo: float, slope_hi: float,
             out: list[tuple[int, float, float]]) -> None:
        """Emit segments covering ``[i0, i1)``, splitting on rounding drift."""
        length = i1 - i0
        if length <= 0:
            return
        if length == 1 or not math.isfinite(slope_lo):
            slope = 0.0
        else:
            slope = (slope_lo + slope_hi) / 2.0
        intercept = float(values[i0])
        window = values[i0:i1]
        fitted = intercept + slope * np.arange(length, dtype=np.float64)
        allowed = error_bound * np.abs(window) + _F32_SLACK * np.maximum(
            1.0, np.abs(window))
        if length == 1 or bool(np.all(np.abs(fitted - window) <= allowed)):
            out.append((length, slope, intercept))
            return
        # Drifted past the pointwise bound: split and re-fit the halves on
        # the cone alone (the aggregate budget is a quality constraint,
        # not a correctness one).
        mid = i0 + length // 2
        lo_a, hi_a = _cone(values, error_bound, i0, mid)
        self._fit(values, error_bound, i0, mid, lo_a, hi_a, out)
        lo_b, hi_b = _cone(values, error_bound, mid, i1)
        self._fit(values, error_bound, mid, i1, lo_b, hi_b, out)

    @staticmethod
    def _reconstruct(lengths: np.ndarray, slopes: np.ndarray,
                     intercepts: np.ndarray) -> np.ndarray:
        """Single ``np.repeat``-based ramp over all segments at once."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) == 0:
            return np.empty(0)
        total = int(lengths.sum())
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        t = (np.arange(total, dtype=np.int64) - starts).astype(np.float64)
        return np.repeat(intercepts, lengths) + np.repeat(slopes, lengths) * t

    @classmethod
    def _reconstruct_series(cls, series: TimeSeries, lengths, slopes,
                            intercepts) -> TimeSeries:
        values = cls._reconstruct(np.asarray(lengths, dtype=np.int64),
                                  np.asarray(slopes, dtype=np.float64),
                                  np.asarray(intercepts, dtype=np.float64))
        return TimeSeries(values, start=series.start, interval=series.interval,
                          name="decompressed")

    @staticmethod
    def _serialize(series: TimeSeries, lengths, slopes, intercepts) -> bytes:
        """Columnar layout (lengths, slopes, intercepts) to help gzip."""
        lengths = np.asarray(lengths, dtype="<u2")
        slopes = np.asarray(slopes, dtype="<f8")
        intercepts = np.asarray(intercepts, dtype="<f8")
        return (timestamps.encode_header(series.start, series.interval)
                + _COUNT.pack(len(lengths))
                + lengths.tobytes() + slopes.tobytes() + intercepts.tobytes())

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        lengths = np.frombuffer(payload, dtype="<u2", count=count,
                                offset=offset)
        offset += 2 * count
        slopes = np.frombuffer(payload, dtype="<f8", count=count,
                               offset=offset)
        offset += 8 * count
        intercepts = np.frombuffer(payload, dtype="<f8", count=count,
                                   offset=offset)
        values = self._reconstruct(lengths, slopes, intercepts)
        return TimeSeries(values, start=start, interval=interval,
                          name="decompressed")
