"""Tests for the change-point and anomaly detectors."""

import numpy as np
import pytest

from repro.tasks.detectors import (mean_shift_changepoints, f1_score,
                                   match_detections, zscore_anomalies)


def test_mean_shift_detects_a_step():
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.normal(0, 1, 500), rng.normal(8, 1, 500)])
    detections = mean_shift_changepoints(values)
    assert any(abs(d - 500) < 30 for d in detections)


def test_mean_shift_quiet_on_stationary_noise():
    rng = np.random.default_rng(1)
    detections = mean_shift_changepoints(rng.normal(0, 1, 2000))
    assert len(detections) <= 1


def test_mean_shift_detects_multiple_changes():
    rng = np.random.default_rng(2)
    values = np.concatenate([rng.normal(0, 1, 400), rng.normal(10, 1, 400),
                             rng.normal(-5, 1, 400)])
    detections = mean_shift_changepoints(values)
    assert any(abs(d - 400) < 30 for d in detections)
    assert any(abs(d - 800) < 30 for d in detections)


def test_mean_shift_constant_series_empty():
    assert mean_shift_changepoints(np.full(100, 3.0)) == []


def test_mean_shift_short_series_empty():
    assert mean_shift_changepoints(np.array([1.0, 2.0])) == []


def test_zscore_finds_injected_spike():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 1, 1000)
    values[600] += 15.0
    detections = zscore_anomalies(values)
    assert 600 in detections


def test_zscore_quiet_on_clean_data():
    rng = np.random.default_rng(4)
    values = 10 + 0.1 * rng.normal(0, 1, 1000)
    assert len(zscore_anomalies(values)) <= 2


def test_zscore_short_series_empty():
    assert zscore_anomalies(np.arange(10.0), window=48) == []


def test_zscore_bad_window_rejected():
    with pytest.raises(ValueError):
        zscore_anomalies(np.arange(100.0), window=1)


def test_match_detections_counts():
    tp, fp, fn = match_detections([100, 500], [102, 300, 900], tolerance=10)
    assert (tp, fp, fn) == (1, 2, 1)


def test_match_detections_one_to_one():
    # two detections near one truth point: only one may match
    tp, fp, fn = match_detections([100], [98, 102], tolerance=10)
    assert (tp, fp, fn) == (1, 1, 0)


def test_f1_perfect_and_empty():
    assert f1_score(5, 0, 0) == 1.0
    assert f1_score(0, 0, 0) == 0.0
    assert f1_score(1, 1, 1) == pytest.approx(0.5)


def test_mean_shift_window_below_two_returns_empty():
    # window < 2 is degenerate (no within-window variance): defined as []
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.normal(0, 1, 50), rng.normal(9, 1, 50)])
    assert mean_shift_changepoints(values, window=1) == []
    assert mean_shift_changepoints(values, window=0) == []


def test_mean_shift_collapses_a_sustained_shift_to_one_boundary():
    # every boundary near the step exceeds the threshold; the run must
    # collapse to the single strongest boundary, not one per window slide
    rng = np.random.default_rng(6)
    values = np.concatenate([rng.normal(0, 0.5, 600),
                             rng.normal(12, 0.5, 600)])
    detections = mean_shift_changepoints(values, window=50)
    assert len(detections) == 1
    assert abs(detections[0] - 600) < 25


def test_mean_shift_exact_minimum_length_boundary():
    # n == 2 * window is the smallest analyzable series (one boundary)
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.normal(0, 0.3, 50), rng.normal(6, 0.3, 50)])
    detections = mean_shift_changepoints(values, window=50)
    assert detections == [50]
    # one sample shorter is below the minimum
    assert mean_shift_changepoints(values[:-1], window=50) == []


def test_zscore_causal_blind_spot():
    # the rolling window strictly precedes each point, so the first
    # `window` indices can never be flagged — even with a huge spike there
    rng = np.random.default_rng(8)
    values = rng.normal(0, 1, 300)
    values[10] += 50.0
    values[200] += 50.0
    detections = zscore_anomalies(values, window=48)
    assert 200 in detections
    assert all(index >= 48 for index in detections)
    assert 10 not in detections


def test_zscore_series_length_equal_to_window_is_empty():
    assert zscore_anomalies(np.arange(48.0), window=48) == []
    # one point past the window is analyzable
    rng = np.random.default_rng(9)
    values = np.concatenate([rng.normal(0, 1, 48), [40.0]])
    assert zscore_anomalies(values, window=48) == [48]


def test_zscore_anomaly_cannot_mask_itself():
    # a spike inside the *future* would inflate a centered window's std;
    # the causal window keeps the spike detectable right where it happens
    rng = np.random.default_rng(10)
    values = rng.normal(0, 1, 400)
    values[100] += 12.0
    values[101] += 12.0  # a pair of adjacent outliers
    detections = zscore_anomalies(values, window=48, threshold=4.0)
    assert 100 in detections


def test_match_detections_empty_inputs():
    assert match_detections([], []) == (0, 0, 0)
    assert match_detections([100], []) == (0, 0, 1)
    assert match_detections([], [100]) == (0, 1, 0)
