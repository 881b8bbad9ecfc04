"""The percentile rule and the parent-versus-change verdicts."""

from __future__ import annotations

import math

import pytest

import verdict
from traffic import Outcome, latency_summary, percentile, top_percentile


def outcome(latency_s: float | None, late_s: float = 0.0) -> Outcome:
    result = Outcome("compress", {}, scheduled=100.0, sent=100.0 + late_s)
    result.ok = latency_s is not None
    result.finished = 100.0 + (latency_s or 0.0)
    return result


def test_nearest_rank_percentile_is_a_seen_value():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50.0) == 50.0
    assert percentile(samples, 90.0) == 90.0
    assert percentile([3.0], 90.0) == 3.0


def test_a_failed_request_counts_as_infinite_latency():
    outcomes = [outcome(0.010)] * 95 + [outcome(None)] * 5
    summary = latency_summary(outcomes)
    assert summary["p50_ms"] == pytest.approx(10.0)
    assert summary["p90_ms"] == pytest.approx(10.0)
    outcomes = [outcome(0.010)] * 85 + [outcome(None)] * 15
    assert math.isinf(latency_summary(outcomes)["p90_ms"])


def test_top_percentile_needs_ten_samples_beyond_it():
    assert top_percentile(99) == 50.0
    assert top_percentile(100) == 90.0
    assert top_percentile(200) == 95.0
    assert top_percentile(1000) == 99.0
    assert top_percentile(15) is None


def test_generator_lateness_is_reported():
    outcomes = [outcome(0.02, late_s=0.001)] * 90 + \
        [outcome(0.05, late_s=0.030)] * 10
    assert latency_summary(outcomes)["late_p90_ms"] == pytest.approx(1.0)


def test_spread_is_iqr_over_median():
    assert verdict.spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 12)]
    q1, _, q3 = (3.0, 6.0, 9.0)
    assert verdict.spread(values) == pytest.approx((q3 - q1) / 6.0)


PARENT = [100.0, 101.0, 99.0, 100.5, 100.2, 99.5, 100.8, 99.9, 100.1, 100.3]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    row = verdict.judge(PARENT, change, "lower", 0.1)
    assert row["verdict"] == "improved" and row["wins"] == 10


def test_small_noise_is_no_regression():
    change = PARENT[1:] + PARENT[:1]
    row = verdict.judge(PARENT, change, "lower", 0.1)
    assert row["verdict"] == "no regression"


def test_worse_beyond_the_bound_is_regressed():
    change = [v * 1.2 for v in PARENT]
    assert verdict.judge(PARENT, change, "lower", 0.1)["verdict"] == \
        "regressed"
    # the same numbers are a gain for a higher-is-better metric
    assert verdict.judge(PARENT, change, "higher", 0.1)["verdict"] == \
        "improved"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    change = [v * 1.05 for v in noisy[::-1]]
    assert verdict.judge(noisy, change, "lower", 0.1)["verdict"] == \
        "unresolved"


def test_nine_of_ten_wins_without_a_clear_gap_is_not_a_gain():
    change = [v - 0.05 for v in PARENT]
    row = verdict.judge(PARENT, change, "lower", 0.1)
    assert row["wins"] == 10 and row["verdict"] == "no regression"


def test_fewer_than_ten_pairs_is_refused():
    assert verdict.judge(PARENT[:9], PARENT[:9], "lower", 0.1)["verdict"] \
        == "too few pairs"


def test_compare_pairs_runs_by_seed_per_workload():
    benchmark = {"workloads": [{"name": "grid_cold"}],
                 "end_to_end": [{"name": "latency_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}]}
    parent = [{"workload": "grid_cold", "seed": s, "trace": False,
               "metrics": {"latency_ms": PARENT[s]}} for s in range(10)]
    change = [{"workload": "grid_cold", "seed": s, "trace": False,
               "metrics": {"latency_ms": 0.5 * PARENT[s]}}
              for s in reversed(range(10))]
    rows = verdict.compare(parent, change, benchmark)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == \
        [("grid_cold", "latency_ms", "improved")]
