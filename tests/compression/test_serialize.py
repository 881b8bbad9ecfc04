"""Tests for raw serialization and compression-ratio accounting."""

import numpy as np
import pytest

from repro.compression import (compression_ratio, gzip_bytes, gunzip_bytes,
                               raw_gz_size, serialize_csv)
from repro.datasets import TimeSeries


def test_csv_has_header_and_one_row_per_point():
    series = TimeSeries(np.array([1.0, 2.5]), start=1_577_836_800, interval=60,
                        name="demand")
    text = serialize_csv(series).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "demand,value"
    assert len(lines) == 3
    assert lines[1].startswith("2020-01-01 00:00:00,")
    assert lines[2].startswith("2020-01-01 00:01:00,")


def test_csv_renders_integers_compactly():
    series = TimeSeries(np.array([0.0, 4.0]), interval=60)
    text = serialize_csv(series).decode()
    assert ",0\n" in text
    assert ",4\n" in text


def test_csv_renders_float32_artifacts_verbatim():
    value = float(np.float32(5.827))  # 5.827000141143799
    series = TimeSeries(np.array([value]), interval=60)
    assert ",5.827000141143799" in serialize_csv(series).decode()


def test_gzip_round_trip():
    payload = b"hello world" * 100
    assert gunzip_bytes(gzip_bytes(payload)) == payload


def test_gzip_is_deterministic():
    payload = b"abc" * 1000
    assert gzip_bytes(payload) == gzip_bytes(payload)


def test_raw_gz_size_positive_and_below_plain_text():
    rng = np.random.default_rng(0)
    series = TimeSeries(rng.normal(100, 1, 1000), interval=600)
    size = raw_gz_size(series)
    assert 0 < size < len(serialize_csv(series))


def test_compression_ratio_definition():
    assert compression_ratio(100, 25) == 4.0


def test_compression_ratio_rejects_zero_denominator():
    with pytest.raises(ValueError):
        compression_ratio(100, 0)
