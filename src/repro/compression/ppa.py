"""PPA — Piecewise Polynomial Approximation (Eichinger et al., VLDB J. 2015).

The paper's related work (Section 6.3) highlights PPA as the one lossy
method whose forecasting impact had previously been studied (on a single
energy dataset with exponential smoothing).  PPA greedily grows a window
and fits polynomials of increasing degree (0..max_degree), keeping the
longest window any degree can cover within the pointwise error bound; the
best (degree, coefficients) pair is emitted per segment.

This implementation uses the same relative pointwise bound and storage
conventions as the package's other compressors, making PPA a drop-in
fourth lossy method for every experiment.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression import timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.datasets.timeseries import TimeSeries
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")
_SEGMENT_HEADER = struct.Struct("<HB")  # length (u16), degree (u8)

DEFAULT_MAX_DEGREE = 3


def _fit_within_bound(values: np.ndarray, degree: int, error_bound: float
                      ) -> np.ndarray | None:
    """Least-squares polynomial if it satisfies the bound, else None."""
    n = len(values)
    if n <= degree:
        return None
    t = np.arange(n, dtype=np.float64)
    coefficients = np.polyfit(t, values, degree)
    fitted = np.polyval(coefficients, t)
    allowed = error_bound * np.abs(values) + 1e-9 * np.maximum(
        1.0, np.abs(values))
    if np.all(np.abs(fitted - values) <= allowed):
        return coefficients
    return None


@register_compressor("PPA", lossy=True,
                     description="piecewise polynomial approximation "
                                 "(related work, off the default grid)")
class PPA(Compressor):
    """Greedy piecewise polynomial approximation with a relative bound."""

    name = "PPA"
    is_lossy = True

    def __init__(self, max_degree: int = DEFAULT_MAX_DEGREE,
                 growth: int = 16) -> None:
        if not 0 <= max_degree <= 7:
            raise ValueError(f"max degree must be in [0, 7], got {max_degree}")
        if growth < 1:
            raise ValueError(f"growth step must be positive, got {growth}")
        self.max_degree = max_degree
        self.growth = growth

    def compress(self, series: TimeSeries, error_bound: float
                 ) -> CompressionResult:
        self._check_inputs(series, error_bound)
        values = series.values
        n = len(values)
        segments: list[tuple[int, int, np.ndarray]] = []
        start = 0
        while start < n:
            length, degree, coefficients = self._longest_segment(
                values[start:], error_bound)
            segments.append((length, degree, coefficients))
            start += length

        compressed = gzip_bytes(self._serialize(series, segments))
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            decompressed=self.decompress(compressed),
            compressed=compressed,
            num_segments=len(segments),
        ))

    def _longest_segment(self, values: np.ndarray, error_bound: float
                         ) -> tuple[int, int, np.ndarray]:
        """Longest prefix coverable by any degree <= max_degree.

        Doubles the window while a fit exists, then binary-searches the
        exact boundary; each candidate window keeps its lowest workable
        degree (cheaper coefficients win ties).
        """
        limit = min(len(values), timestamps.MAX_SEGMENT_LENGTH)

        def best_fit(length: int) -> tuple[int, np.ndarray] | None:
            window = values[:length]
            for degree in range(0, self.max_degree + 1):
                coefficients = _fit_within_bound(window, degree, error_bound)
                if coefficients is not None:
                    return degree, coefficients
            return None

        # a single point is always coverable by a degree-0 polynomial
        known_good = 1
        known_fit = (0, np.array([values[0]]))
        candidate = min(self.growth, limit)
        while candidate <= limit:
            fit = best_fit(candidate)
            if fit is None:
                break
            known_good, known_fit = candidate, fit
            if candidate == limit:
                break
            candidate = min(candidate * 2, limit)
        # binary search between the last good size and the first bad one
        low, high = known_good, min(candidate, limit)
        while low + 1 < high:
            middle = (low + high) // 2
            fit = best_fit(middle)
            if fit is None:
                high = middle
            else:
                low, known_fit = middle, fit
        degree, coefficients = known_fit
        return low, degree, coefficients

    @staticmethod
    def _serialize(series: TimeSeries,
                   segments: list[tuple[int, int, np.ndarray]]) -> bytes:
        parts = [timestamps.encode_header(series.start, series.interval),
                 _COUNT.pack(len(segments))]
        for length, degree, coefficients in segments:
            parts.append(_SEGMENT_HEADER.pack(length, degree))
            parts.append(np.asarray(coefficients, dtype="<f8").tobytes())
        return b"".join(parts)

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        chunks = []
        for _ in range(count):
            length, degree = _SEGMENT_HEADER.unpack_from(payload, offset)
            offset += _SEGMENT_HEADER.size
            coefficients = np.frombuffer(payload, dtype="<f8",
                                         count=degree + 1, offset=offset)
            offset += 8 * (degree + 1)
            t = np.arange(length, dtype=np.float64)
            chunks.append(np.polyval(coefficients, t))
        values = np.concatenate(chunks) if chunks else np.empty(0)
        return TimeSeries(values, start=start, interval=interval,
                          name="decompressed")
