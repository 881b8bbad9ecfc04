"""Compressor interface and shared result type.

All compressors consume a :class:`~repro.datasets.timeseries.TimeSeries` and
produce a :class:`CompressionResult` that carries both the decompressed
series (the transformation ``T`` of Definition 5) and the exact serialized
byte size used for compression-ratio accounting (Section 3.2: sizes are the
bytes of the generated ``.gz`` files).
"""

from __future__ import annotations

import gzip as _gzip
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.datasets.timeseries import TimeSeries

# gzip CLI default level; Section 3.2 applies plain gzip as the final stage.
GZIP_LEVEL = 6


def gzip_bytes(payload: bytes) -> bytes:
    """Deterministically gzip ``payload`` (mtime pinned to zero)."""
    return _gzip.compress(payload, compresslevel=GZIP_LEVEL, mtime=0)


def gunzip_bytes(payload: bytes) -> bytes:
    """Inverse of :func:`gzip_bytes`."""
    return _gzip.decompress(payload)


def record_result(result: "CompressionResult") -> "CompressionResult":
    """Emit compression telemetry for one finished compression run.

    Returns the result unchanged so ``return record_result(...)`` wraps a
    compressor's construction site in one line.  No-op unless
    :mod:`repro.obs.metrics` is enabled: bytes in (8 bytes per float64
    sample) and out, call/segment counters per method, and the achieved
    compression ratio as a histogram observation.
    """
    from repro.obs import metrics

    if not metrics.enabled():
        return result
    bytes_in = 8 * len(result.decompressed)
    metrics.inc(f"compress.{result.method}.calls")
    metrics.inc("compress.bytes_in", bytes_in)
    metrics.inc("compress.bytes_out", result.compressed_size)
    metrics.inc("compress.segments", result.num_segments)
    if result.compressed_size:
        metrics.observe("compress.ratio", bytes_in / result.compressed_size)
    return result


@dataclass(frozen=True)
class CompressionResult:
    """What one compression run produced; the pre-gzip bytes are
    ``gunzip_bytes(compressed)`` (Gorilla's ``compressed`` is them)."""

    method: str
    error_bound: float
    decompressed: TimeSeries
    compressed: bytes  # the final .gz bytes whose length defines the size
    num_segments: int

    @property
    def compressed_size(self) -> int:
        """Size in bytes of the stored (.gz) representation."""
        return len(self.compressed)


class Compressor(ABC):
    """A (de)compression method operating on regular time series."""

    #: registry name, e.g. "PMC"
    name: str = "?"
    #: lossless methods ignore the error bound
    is_lossy: bool = True

    @abstractmethod
    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
        """Compress ``series`` under a relative pointwise ``error_bound``."""

    @abstractmethod
    def decompress(self, compressed: bytes) -> TimeSeries:
        """Reconstruct the series from the stored .gz bytes."""

    def _check_inputs(self, series: TimeSeries, error_bound: float) -> None:
        import numpy as np

        if len(series) == 0:
            raise ValueError(f"{self.name}: cannot compress an empty series")
        if not np.isfinite(series.values).all():
            raise ValueError(
                f"{self.name}: series contains NaN or infinite values; "
                "clean the input before compressing"
            )
        if self.is_lossy and error_bound < 0:
            raise ValueError(
                f"{self.name}: error bound must be non-negative, got {error_bound}"
            )


def check_error_bound(original: TimeSeries, decompressed: TimeSeries,
                      error_bound: float, slack: float = 1e-6) -> bool:
    """True when the relative pointwise bound of Definition 4 holds.

    ``slack`` absorbs float32 storage rounding (values are stored as 32-bit
    floats, as in ModelarDB): each stored coefficient carries a relative
    rounding error of at most 2^-24.
    """
    import numpy as np

    v = original.values
    v_hat = decompressed.values
    allowed = error_bound * np.abs(v) + slack * np.maximum(1.0, np.abs(v))
    return bool(np.all(np.abs(v_hat - v) <= allowed))
