"""Raw-series serialization and size accounting (Section 3.2).

The paper's datasets ship as CSV files, and "gzip is also applied directly
to the raw dataset", so the compression-ratio denominator (Equation 3) is
the size of the gzipped CSV text: one ``timestamp,value`` line per point.
"""

from __future__ import annotations

from datetime import datetime, timezone

from repro.compression.base import gzip_bytes
from repro.datasets.timeseries import TimeSeries


def serialize_csv(series: TimeSeries) -> bytes:
    """Render the series the way the source datasets ship: CSV text.

    One ``timestamp,value`` row per point, ISO timestamps, values printed
    with Python's shortest round-trip representation (so sensor-precision
    data prints with its recorded decimals).
    """
    lines = [f"{series.name},value"]
    interval = series.interval
    start = series.start
    for i, value in enumerate(series.values):
        stamp = datetime.fromtimestamp(start + i * interval, tz=timezone.utc)
        rendered = f"{value:g}" if value == int(value) else repr(float(value))
        lines.append(f"{stamp:%Y-%m-%d %H:%M:%S},{rendered}")
    return "\n".join(lines).encode("ascii") + b"\n"


def raw_gz_size(series: TimeSeries) -> int:
    """Byte size of the gzipped raw CSV file (the CR denominator)."""
    return len(gzip_bytes(serialize_csv(series)))


def compression_ratio(raw_size: int, compressed_size: int) -> float:
    """Equation 3: size_of_raw_data / size_of_compressed_data."""
    if compressed_size <= 0:
        raise ValueError(f"compressed size must be positive, got {compressed_size}")
    return raw_size / compressed_size
