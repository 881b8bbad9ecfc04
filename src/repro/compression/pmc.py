"""Poor Man's Compression — Mean variant (Lazaridis & Mehrotra, ICDE 2003).

PMC-Mean grows an adaptive window while the window's mean value stays
within the relative pointwise error bound of every point.  When adding a
point would break the bound, the window *without* that point becomes a
segment represented by its mean, and the point starts a new window
(Section 3.2 of the paper).

Each segment is stored as a 16-bit length plus one 32-bit float, which is
why PMC benefits so strongly from the shared gzip stage: long runs of
similar constants compress extremely well.

Window means are anchored to one global prefix-sum fold (``mean = (S[end] -
S[start]) / length``), so the batch scalar loop, the dense-sweep kernel,
and the streaming encoder all compute bit-identical means.  The
segmentation runs on the dense first-violation sweep in
``repro.compression.kernels``.  The scalar per-point loop it replaced is
``ReferencePMC`` in ``repro/reference.py``, which the equivalence suite
pins to the kernel (identical segments, byte-identical payloads).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.datasets.timeseries import TimeSeries
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")


def _store_float32(value: float, lo: float, hi: float) -> float:
    """Round ``value`` to float32, keeping it inside the admissible interval."""
    stored = float(np.float32(value))
    if lo <= stored <= hi:
        return stored
    # Rounding pushed the coefficient just outside [lo, hi]; nudging one ULP
    # toward the interval midpoint restores the guarantee.
    nudged = float(np.float32(np.nextafter(np.float32(stored),
                                           np.float32((lo + hi) / 2.0))))
    return min(max(nudged, lo), hi)


@register_compressor("PMC", lossy=True, paper=True, grid=True,
                     streaming="OnlinePMC",
                     description="piecewise constant (mean) approximation")
class PMC(Compressor):
    """PMC-Mean with a relative pointwise error bound."""

    name = "PMC"
    is_lossy = True

    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
        self._check_inputs(series, error_bound)
        lengths, means = self._segments(series.values, error_bound)

        payload = self._serialize(series, lengths, means)
        compressed = gzip_bytes(payload)
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            original=series,
            decompressed=self._reconstruct_series(series, lengths, means),
            payload=payload,
            compressed=compressed,
            num_segments=len(lengths),
        ))

    @staticmethod
    def _segments(values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Dense-sweep segmentation (see ``repro.compression.kernels``)."""
        lengths, means, lo, hi = kernels.pmc_chase(
            values, error_bound, timestamps.MAX_SEGMENT_LENGTH)
        stored = means.astype(np.float32).astype(np.float64)
        inside = (lo <= stored) & (stored <= hi)
        if not inside.all():
            # float32 rounding pushed a few coefficients outside their
            # admissible interval; nudge those through the scalar helper.
            for i in np.flatnonzero(~inside):
                stored[i] = _store_float32(float(means[i]),
                                           float(lo[i]), float(hi[i]))
        return lengths, stored

    @staticmethod
    def _reconstruct_series(series: TimeSeries, lengths, means) -> TimeSeries:
        """Reconstruction from in-memory segments, identical to a decode.

        The means round-trip through float32 exactly as the serialized
        payload does, so ``CompressionResult.decompressed`` costs nothing
        extra yet matches ``decompress(compressed)`` bit for bit (asserted
        by the equivalence suite).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        stored = np.asarray(means, dtype="<f4")
        values = np.repeat(stored.astype(np.float64), lengths)
        return TimeSeries(values, start=series.start, interval=series.interval,
                          name="decompressed")

    @staticmethod
    def _serialize(series: TimeSeries, lengths, means) -> bytes:
        """Columnar layout (lengths, then values) so gzip sees each stream."""
        lengths = np.asarray(lengths, dtype="<u2")
        stored = np.asarray(means, dtype="<f4")
        return (timestamps.encode_header(series.start, series.interval)
                + _COUNT.pack(len(lengths))
                + lengths.tobytes() + stored.tobytes())

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        lengths = np.frombuffer(payload, dtype="<u2", count=count, offset=offset)
        offset += 2 * count
        means = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        values = np.repeat(means.astype(np.float64), lengths)
        return TimeSeries(values, start=start, interval=interval, name="decompressed")
