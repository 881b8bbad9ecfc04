"""Failure-injection tests: corrupted or truncated compressed streams."""

import gzip

import numpy as np
import pytest

from repro.compression import PMC, SZ, Gorilla, Swing, gunzip_bytes, gzip_bytes
from repro.datasets import TimeSeries


def sample_series(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries(20 + rng.normal(0, 2, n), interval=900)


@pytest.mark.parametrize("compressor_cls", [PMC, Swing, SZ])
def test_truncated_gzip_stream_raises(compressor_cls):
    compressor = compressor_cls()
    compressed = compressor.compress(sample_series(), 0.1).compressed
    with pytest.raises((EOFError, OSError, gzip.BadGzipFile)):
        compressor.decompress(compressed[: len(compressed) // 2])


@pytest.mark.parametrize("compressor_cls", [PMC, Swing, SZ])
def test_non_gzip_garbage_raises(compressor_cls):
    with pytest.raises((OSError, gzip.BadGzipFile, ValueError)):
        compressor_cls().decompress(b"definitely not gzip data")


def test_truncated_payload_inside_valid_gzip_raises():
    compressor = PMC()
    result = compressor.compress(sample_series(), 0.1)
    truncated = gzip_bytes(gunzip_bytes(result.compressed)[:10])
    with pytest.raises((ValueError, IndexError, Exception)):
        series = compressor.decompress(truncated)
        # PMC may decode a shorter series from a truncated stream; that must
        # never silently yield the original length
        assert len(series) != len(sample_series())


def test_gorilla_truncated_stream_raises_or_shortens():
    compressor = Gorilla()
    compressed = compressor.compress(sample_series()).compressed
    with pytest.raises((EOFError, Exception)):
        out = compressor.decompress(compressed[:20])
        assert len(out) != 500


def test_wrong_method_bytes_do_not_round_trip():
    """Feeding one codec's bytes to another must fail or mismatch."""
    series = sample_series()
    pmc_bytes = PMC().compress(series, 0.1).compressed
    try:
        decoded = Swing().decompress(pmc_bytes)
    except Exception:
        return  # raising is the preferred outcome
    assert not np.array_equal(decoded.values, series.values)
