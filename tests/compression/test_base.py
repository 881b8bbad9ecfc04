"""Tests for the compressor base utilities."""

import numpy as np
import pytest

from repro.compression import PMC, check_error_bound
from repro.compression.base import CompressionResult
from repro.datasets import TimeSeries


def test_check_error_bound_exact_pass():
    series = TimeSeries(np.array([10.0, 20.0]))
    within = TimeSeries(np.array([10.5, 19.0]))
    assert check_error_bound(series, within, 0.1)


def test_check_error_bound_fails_outside():
    series = TimeSeries(np.array([10.0, 20.0]))
    outside = TimeSeries(np.array([12.0, 20.0]))
    assert not check_error_bound(series, outside, 0.1)


def test_check_error_bound_slack_absorbs_float32_rounding():
    value = 1e6
    series = TimeSeries(np.array([value]))
    rounded = TimeSeries(np.array([float(np.float32(value * 1.0000001))]))
    assert check_error_bound(series, rounded, 0.0, slack=1e-6)


def test_check_error_bound_zero_values_demand_exactness():
    series = TimeSeries(np.array([0.0]))
    assert check_error_bound(series, TimeSeries(np.array([0.0])), 0.5)
    # only the absolute slack is allowed around exact zeros
    assert not check_error_bound(series, TimeSeries(np.array([0.1])), 0.5,
                                 slack=1e-6)


def test_compression_result_size_property():
    series = TimeSeries(np.arange(50.0))
    result = PMC().compress(series, 0.1)
    assert result.compressed_size == len(result.compressed)
    assert isinstance(result, CompressionResult)
    assert len(result.decompressed) == len(series)
    assert result.decompressed.start == series.start


def test_lossy_rejects_negative_bound_via_base():
    with pytest.raises(ValueError):
        PMC().compress(TimeSeries(np.arange(5.0)), -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    from repro.compression import SZ, Gorilla, Swing

    series = TimeSeries(np.array([1.0, bad, 3.0]))
    for compressor in (PMC(), Swing(), SZ(), Gorilla()):
        with pytest.raises(ValueError):
            compressor.compress(series, 0.1)
