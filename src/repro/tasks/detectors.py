"""Event detectors for the anomaly downstream task (the Section 5
analytics extension).

The paper calls for studying lossy compression's impact on analytics
beyond forecasting, citing change detection (Hollmig et al., 2017) and
anomaly detection.  This module provides two classic detectors:

- :func:`mean_shift_changepoints` — a two-window mean-shift test
  detecting sustained level shifts;
- :func:`zscore_anomalies` — rolling-window z-score detector for pointwise
  outliers;

plus the tolerance-matched F1 scoring (:func:`match_detections`,
:func:`f1_score`) that compares detections on raw and decompressed data.

The anomaly task's model axis parallels forecasting's: each name maps to
a detector class registered with ``task="anomaly"`` in the central
plugin registry, so ``repro-eval grid --task anomaly`` enumerates its
models the same way the forecasting grid enumerates forecasters.  The
classes are thin, picklable wrappers over the detection functions.
"""

from __future__ import annotations

import numpy as np

from repro.registry import register_model


def mean_shift_changepoints(values: np.ndarray, window: int = 50,
                            threshold: float = 6.0) -> list[int]:
    """Two-window mean-shift change-point detection.

    Compares the means of every pair of adjacent ``window``-point windows
    with a two-sample z statistic (pooled within-window variance); runs of
    boundaries whose statistic exceeds ``threshold`` are collapsed to the
    single strongest boundary, so each sustained level shift is reported
    once.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2 * window or window < 2:
        return []
    from repro.features.rolling import rolling_mean, rolling_var

    means = rolling_mean(values, window)
    variances = rolling_var(values, window)
    left_mean, right_mean = means[:-window], means[window:]
    pooled = 0.5 * (variances[:-window] + variances[window:])
    pooled = np.maximum(pooled, 1e-6 * max(float(values.var()), 1e-12))
    statistic = np.abs(right_mean - left_mean) / np.sqrt(
        2.0 * pooled / window)
    flagged = statistic > threshold
    changes: list[int] = []
    i = 0
    while i < len(flagged):
        if not flagged[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(flagged) and flagged[j + 1]:
            j += 1
        peak = i + int(np.argmax(statistic[i:j + 1]))
        changes.append(peak + window)  # boundary between the two windows
        i = j + 1
    return changes


def zscore_anomalies(values: np.ndarray, window: int = 48,
                     threshold: float = 4.0) -> list[int]:
    """Pointwise anomalies: |value - rolling mean| > threshold * rolling std.

    The rolling statistics are causal (the window strictly precedes each
    point), so an anomaly cannot mask itself.
    """
    values = np.asarray(values, dtype=np.float64)
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if len(values) <= window:
        return []
    cumulative = np.concatenate([[0.0], np.cumsum(values)])
    cumulative_sq = np.concatenate([[0.0], np.cumsum(values ** 2)])
    means = (cumulative[window:-1] - cumulative[:-window - 1]) / window
    mean_sq = (cumulative_sq[window:-1] - cumulative_sq[:-window - 1]) / window
    stds = np.sqrt(np.maximum(mean_sq - means ** 2, 1e-12))
    floor = max(values.std() * 0.05, 1e-9)  # avoid zero-variance windows
    stds = np.maximum(stds, floor)
    candidates = values[window:]
    flags = np.abs(candidates - means) > threshold * stds
    return [int(i) + window for i in np.nonzero(flags)[0]]


def match_detections(true_points: list[int], detected: list[int],
                     tolerance: int = 24) -> tuple[int, int, int]:
    """Match detections to ground truth within ``tolerance`` ticks.

    Returns ``(true_positives, false_positives, false_negatives)``; each
    ground-truth point can be matched by at most one detection.
    """
    unmatched = sorted(true_points)
    true_positives = 0
    false_positives = 0
    for point in sorted(detected):
        hit = next((t for t in unmatched if abs(t - point) <= tolerance), None)
        if hit is None:
            false_positives += 1
        else:
            true_positives += 1
            unmatched.remove(hit)
    return true_positives, false_positives, len(unmatched)


def f1_score(true_positives: int, false_positives: int,
             false_negatives: int) -> float:
    """F1 from the match counts (0 when nothing was detected or present)."""
    denominator = 2 * true_positives + false_positives + false_negatives
    if denominator == 0:
        return 0.0
    return 2 * true_positives / denominator


class Detector:
    """One event detector: ``detect`` maps a series to event indices."""

    name = "?"

    def detect(self, values: np.ndarray) -> list[int]:
        raise NotImplementedError


@register_model("MeanShift", task="anomaly",
                description="two-window mean-shift level-change detector")
class MeanShiftDetector(Detector):
    """Sustained level shifts via the two-window mean-shift statistic."""

    name = "MeanShift"

    def __init__(self, window: int = 50, threshold: float = 6.0) -> None:
        self.window = window
        self.threshold = threshold

    def detect(self, values: np.ndarray) -> list[int]:
        return mean_shift_changepoints(values, window=self.window,
                                       threshold=self.threshold)


@register_model("ZScore", task="anomaly",
                description="causal rolling z-score outlier detector")
class ZScoreDetector(Detector):
    """Pointwise outliers against a strictly-causal rolling window."""

    name = "ZScore"

    def __init__(self, window: int = 48, threshold: float = 4.0) -> None:
        self.window = window
        self.threshold = threshold

    def detect(self, values: np.ndarray) -> list[int]:
        return zscore_anomalies(values, window=self.window,
                                threshold=self.threshold)


def make(name: str, **kwargs) -> Detector:
    """Instantiate a registered anomaly detector by name."""
    from repro import registry as _registry

    info = _registry.model_info(name)
    if info.task != "anomaly":
        raise KeyError(f"model {name!r} is not an anomaly detector")
    return info.factory(**kwargs)
