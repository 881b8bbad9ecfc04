"""Tests for sliding-window construction.

The strided views are pinned to the stacked per-window twins in
``repro.reference``, and windows drawn before they are built to building
every window and then subsampling it.
"""

import numpy as np
import pytest

from repro import reference
from repro.forecasting import make_windows, paired_windows
from repro.forecasting.windows import drawn_windows, window_count
from repro.reference import subsample_windows


def test_windows_shapes_and_content():
    values = np.arange(10.0)
    x, y = make_windows(values, input_length=4, horizon=2)
    assert x.shape == (5, 4)
    assert y.shape == (5, 2)
    assert x[0].tolist() == [0, 1, 2, 3]
    assert y[0].tolist() == [4, 5]
    assert x[-1].tolist() == [4, 5, 6, 7]
    assert y[-1].tolist() == [8, 9]


def test_stride_skips_windows():
    values = np.arange(20.0)
    x, _ = make_windows(values, 4, 2, stride=3)
    assert x[1][0] == 3.0
    assert len(x) == 5


def test_too_short_series_rejected():
    with pytest.raises(ValueError):
        make_windows(np.arange(5.0), 4, 2)


def test_bad_stride_rejected():
    with pytest.raises(ValueError):
        make_windows(np.arange(10.0), 4, 2, stride=0)


def test_paired_windows_inputs_and_targets_from_different_series():
    raw = np.arange(10.0)
    transformed = raw + 100.0
    x, y = paired_windows(transformed, raw, 4, 2)
    assert x[0].tolist() == [100, 101, 102, 103]  # decompressed inputs
    assert y[0].tolist() == [4, 5]  # raw targets (Algorithm 1)


def test_paired_windows_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        paired_windows(np.arange(10.0), np.arange(9.0), 4, 2)


def test_subsample_keeps_alignment():
    x = np.arange(40.0).reshape(20, 2)
    y = x * 10
    rng = np.random.default_rng(0)
    sx, sy = subsample_windows(x, y, 5, rng)
    assert len(sx) == 5
    assert np.array_equal(sy, sx * 10)


def test_subsample_noop_when_under_limit():
    x = np.zeros((3, 2))
    y = np.zeros((3, 1))
    sx, sy = subsample_windows(x, y, 10, np.random.default_rng(0))
    assert sx is x and sy is y


def _same(left, right):
    """Equal shapes, dtypes and bytes, and C-contiguous like the twin."""
    for a, b in zip(left, right):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 24, 40])
@pytest.mark.parametrize("length", [32, 33, 100, 257])
def test_strided_windows_equal_the_stacked_twin(stride, length):
    rng = np.random.default_rng(length * 100 + stride)
    values = rng.normal(size=length).cumsum()
    other = values + rng.normal(size=length)
    _same(make_windows(values, 24, 8, stride),
          reference.make_windows(values, 24, 8, stride))
    _same(paired_windows(other, values, 24, 8, stride),
          reference.paired_windows(other, values, 24, 8, stride))
    assert len(make_windows(values, 24, 8, stride)[0]) == window_count(
        length, 24, 8, stride)


@pytest.mark.parametrize("limit", [1, 5, 68, 69, 70, 500])
def test_drawn_windows_equal_build_all_then_subsample(limit):
    # 100 values give 69 windows of 24+8: limits below, at and above it
    values = np.random.default_rng(limit).normal(size=100)
    drawn_rng, built_rng = (np.random.default_rng(7) for _ in range(2))
    drawn = drawn_windows(values, 24, 8, limit, drawn_rng)
    built = reference.make_windows(values, 24, 8)
    _same(drawn, subsample_windows(*built, limit, built_rng))
    # the same draws were made, so the generators continue alike
    assert drawn_rng.random() == built_rng.random()


def test_drawn_windows_over_candidate_starts():
    values = np.arange(100.0)
    tail = np.arange(60, 69)
    x, y = drawn_windows(values, 24, 8, 4, np.random.default_rng(0),
                         starts=tail)
    built_x, built_y = reference.make_windows(values, 24, 8)
    sx, sy = subsample_windows(built_x[60:], built_y[60:], 4,
                               np.random.default_rng(0))
    _same((x, y), (sx, sy))


def test_drawn_windows_limit_must_be_positive():
    with pytest.raises(ValueError):
        drawn_windows(np.arange(100.0), 24, 8, 0, np.random.default_rng(0))
