"""Ablation A4 — compression impact on analytics beyond forecasting (§5).

The paper calls for extending the impact study to other analytics and
cites evidence that change detection tolerates heavy compression (Hollmig
et al., 2017).  This bench runs mean-shift change detection and z-score anomaly
detection on raw vs decompressed data across methods and bounds, and
asserts the contrast: structural analytics (change detection) survive
aggressive compression, pointwise analytics (anomaly detection) degrade as
the bound approaches the anomaly magnitude.

Detections come from the anomaly task's registered detectors
(``repro.tasks.detectors``) and are scored against the seeded event
positions of two controlled series, not against detections on raw data.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro import registry
from repro.datasets.controlled import ControlledSpec, generate
from repro.datasets.timeseries import TimeSeries
from repro.tasks import detectors

BOUNDS = (0.05, 0.1, 0.3)
METHODS = ("PMC", "SWING", "SZ")
#: detector and match tolerance (ticks) per study
CHANGE = ("MeanShift", 48)
ANOMALY = ("ZScore", 2)


def make_changepoint_series(n: int = 6_000, n_changes: int = 6,
                            magnitude: float = 8.0, seed: int = 0
                            ) -> tuple[TimeSeries, list[int]]:
    """A controlled series with known change-point positions."""
    spec = ControlledSpec(length=n, level_shifts=n_changes,
                          shift_magnitude=magnitude, seasonal_amplitude=1.0,
                          noise_scale=0.5, seed=seed)
    dataset = generate(spec)
    return dataset.target_series, dataset.metadata["shift_positions"]


def make_anomaly_series(n: int = 6_000, n_anomalies: int = 12,
                        magnitude: float = 10.0, seed: int = 1
                        ) -> tuple[TimeSeries, list[int]]:
    """A smooth series with injected pointwise spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = 20.0 + 2.0 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 0.3, n)
    positions = sorted(rng.choice(np.arange(100, n - 100), size=n_anomalies,
                                  replace=False).tolist())
    for position in positions:
        values[position] += magnitude * rng.choice([-1.0, 1.0])
    return TimeSeries(values, interval=600, name="anomalous"), positions


def detection_f1(study: tuple[str, int], values: np.ndarray,
                 truth: list[int]) -> float:
    """F1 of one registered detector's events against the true events."""
    name, tolerance = study
    detected = detectors.make(name).detect(values)
    return detectors.f1_score(*detectors.match_detections(truth, detected,
                                                          tolerance))


def impact_table(study: tuple[str, int], series: TimeSeries,
                 truth: list[int]) -> tuple[float, dict]:
    """Raw-data F1 and the decompressed-data F1 per (method, bound)."""
    compressed = {}
    for method in METHODS:
        for bound in BOUNDS:
            decompressed = registry.make_compressor(method).compress(
                series, bound).decompressed
            compressed[(method, bound)] = detection_f1(
                study, decompressed.values, truth)
    return detection_f1(study, series.values, truth), compressed


def run_study():
    change_series, change_truth = make_changepoint_series(seed=0)
    anomaly_series, anomaly_truth = make_anomaly_series(seed=1)
    assert len(change_truth) == 6
    assert all(0 < p < len(change_series) for p in change_truth)
    return (impact_table(CHANGE, change_series, change_truth),
            impact_table(ANOMALY, anomaly_series, anomaly_truth))


def test_ablation_change_detection(benchmark):
    (raw_change, changes), (raw_anomaly, anomalies) = benchmark.pedantic(
        run_study, rounds=1, iterations=1)
    print_header("Ablation A4: detection F1 on decompressed data "
                 "(raw-data F1 in parentheses)")
    print(f"{'':14s}" + "".join(f"{m:>20s}" for m in METHODS))
    for label, raw, table in (("mean-shift change", raw_change, changes),
                              ("z-score anomaly", raw_anomaly, anomalies)):
        for bound in BOUNDS:
            cells = [f"{table[(method, bound)]:>10.2f} ({raw:>4.2f})"
                     for method in METHODS]
            print(f"{label:>14s} @{bound:<4.2f}" + "".join(
                f"{c:>18s}" for c in cells))

    # both detectors find the seeded events on raw data
    assert raw_change > 0.7
    assert raw_anomaly > 0.7
    # change detection survives mild-to-moderate bounds for every method,
    # and aggressive bounds for the constant/staircase methods; SWING's
    # linear envelope can swallow steps once the bound nears the step size
    for method in METHODS:
        for bound in (0.05, 0.1):
            assert changes[(method, bound)] > 0.6, (method, bound)
    for method in ("PMC", "SZ"):
        assert changes[(method, 0.3)] > 0.6, method
        assert changes[(method, 0.3)] >= raw_change - 0.35, method
    assert changes[("SWING", 0.05)] >= raw_change - 0.35
    # anomaly detection is fine at mild bounds but drops at aggressive ones
    assert raw_anomaly - anomalies[("PMC", 0.05)] < 0.2
    mild = np.mean([anomalies[(m, 0.05)] for m in METHODS])
    aggressive = np.mean([anomalies[(m, 0.3)] for m in METHODS])
    assert mild > 0.8
    assert aggressive < mild
