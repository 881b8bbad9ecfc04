"""Swing filter — piecewise linear approximation (Elmeleegy et al., VLDB 2009).

The filter anchors a segment at its first point and maintains the cone of
line slopes that keep every later point within its relative pointwise error
bound.  When a new point empties the cone, the window becomes a segment
compressed by a line, and the point starts a new window.  Following
ModelarDB's implementation (used by the paper), the emitted slope is the
mean of the cone's upper and lower bounds.

Each segment stores a 16-bit length plus *two* coefficients.  Like
ModelarDB, the linear coefficients are kept in double precision (PMC's
single constant is a 32-bit float), which is the storage overhead the paper
identifies as the reason SWING's compression ratio trails PMC's after gzip.
A fitted segment is still re-verified after storage rounding and split in
two if drift ever pushes a point outside its bound; on the kernel path the
verification runs once, vectorized over the whole series, and only the
rare drifting windows fall back to the per-window split.

The cone scan runs on ``kernels.swing_chase``, which picks per series
between the dense first-violation sweep and the chunked scan the streaming
encoder also runs.  The scalar per-point loop it replaced is
``ReferenceSwing`` in ``repro/reference.py``, pinned to the kernel by the
equivalence suite.  Everything after segmentation (fit, verify, split,
reconstruct, serialize, decode) is shared with CAMEO, which subclasses
Swing and overrides only the segmentation kernel it calls (``_chase``).
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
_ROUNDING_SLACK = 1e-7


def _cone(values: np.ndarray, error_bound: float, i0: int, i1: int
          ) -> tuple[float, float]:
    """Slope cone keeping every point of ``[i0, i1)`` within its bound."""
    anchor = float(values[i0])
    slope_lo, slope_hi = -math.inf, math.inf
    for i in range(i0 + 1, i1):
        value = float(values[i])
        allowed = error_bound * abs(value)
        run = i - i0
        slope_lo = max(slope_lo, (value - allowed - anchor) / run)
        slope_hi = min(slope_hi, (value + allowed - anchor) / run)
    return slope_lo, slope_hi


def cone_slopes(lengths: np.ndarray, cone_lo: np.ndarray,
                cone_hi: np.ndarray) -> np.ndarray:
    """Each window's slope: its cone's midpoint, 0 for a lone point."""
    with np.errstate(invalid="ignore"):
        return np.where((lengths == 1) | ~np.isfinite(cone_lo),
                        0.0, (cone_lo + cone_hi) / 2.0)


@register_compressor("SWING", lossy=True, paper=True, grid=True,
                     streaming="OnlineSwing",
                     description="connected piecewise linear (swing) filter")
class Swing(Compressor):
    """Swing filter with a relative pointwise error bound."""

    name = "SWING"
    is_lossy = True

    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
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

    def _chase(self, values: np.ndarray, error_bound: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segmentation kernel: window lengths and their slope cones."""
        return kernels.swing_chase(values, error_bound,
                                   timestamps.MAX_SEGMENT_LENGTH)

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel segmentation plus one vectorized fit/verify pass."""
        lengths, cone_lo, cone_hi = self._chase(values, error_bound)
        starts = np.cumsum(lengths) - lengths
        slopes = cone_slopes(lengths, cone_lo, cone_hi)
        intercepts = values[starts]
        fitted = self._reconstruct(lengths, slopes, intercepts)
        allowed = (error_bound * np.abs(values)
                   + _ROUNDING_SLACK * np.maximum(1.0, np.abs(values)))
        drifted = np.abs(fitted - values) > allowed
        bad = np.logical_or.reduceat(drifted, starts) & (lengths > 1)
        if not bad.any():
            return lengths, slopes, intercepts
        # Rounding drifted a few windows past the bound: those (and only
        # those) go through the per-window split path.
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
        """Emit segments covering ``[i0, i1)``, splitting on drift."""
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
        allowed = error_bound * np.abs(window) + _ROUNDING_SLACK * np.maximum(
            1.0, np.abs(window))
        if length == 1 or bool(np.all(np.abs(fitted - window) <= allowed)):
            out.append((length, slope, intercept))
            return
        # Rounding drifted past the bound: split and re-fit the halves on
        # the cone alone (CAMEO's aggregate budget is a quality
        # constraint, not a correctness one).
        mid = i0 + length // 2
        lo_a, hi_a = _cone(values, error_bound, i0, mid)
        self._fit(values, error_bound, i0, mid, lo_a, hi_a, out)
        lo_b, hi_b = _cone(values, error_bound, mid, i1)
        self._fit(values, error_bound, mid, i1, lo_b, hi_b, out)

    @staticmethod
    def _reconstruct(lengths: np.ndarray, slopes: np.ndarray,
                     intercepts: np.ndarray) -> np.ndarray:
        """Single ``np.repeat``-based ramp over all segments at once.

        Each output element is ``intercept[s] + slope[s] * t`` with ``t``
        the offset inside its segment — elementwise the same float64
        operations as a per-segment ``intercept + slope * arange``.
        """
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
        """Reconstruction from in-memory segments, identical to a decode.

        Slopes and intercepts are stored as float64, so the serialized
        round trip is exact and ``CompressionResult.decompressed`` matches
        ``decompress(compressed)`` bit for bit at zero extra cost.
        """
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
        lengths = np.frombuffer(payload, dtype="<u2", count=count, offset=offset)
        offset += 2 * count
        slopes = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        intercepts = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        values = self._reconstruct(lengths, slopes, intercepts)
        return TimeSeries(values, start=start, interval=interval, name="decompressed")
