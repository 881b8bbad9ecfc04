"""Tests for the table-building analyses, on synthetic records."""

import numpy as np
import pytest

from repro.api import CompressResponse
from repro.core import (RAW, ScenarioRecord, average_tfe_per_model,
                        best_models, characteristic_sensitivity,
                        elbow_summaries)

EBS = (0.01, 0.05, 0.1, 0.2, 0.4, 0.8)


def hockey_tfe(eb, knee=0.2, slope=3.0):
    """TFE flat before the knee, rising sharply after (Figure 4's shape)."""
    return 0.005 if eb <= knee else slope * (eb - knee)


def make_records():
    records = []
    for model, quality in [("Good", 0.08), ("Bad", 0.2)]:
        records.append(ScenarioRecord("DS", model, RAW, 0.0, 0,
                                      {"NRMSE": quality}))
        for eb in EBS:
            # the Bad model is more resilient (smaller TFE growth)
            slope = 3.0 if model == "Good" else 0.5
            nrmse = quality * (1 + hockey_tfe(eb, slope=slope))
            records.append(ScenarioRecord("DS", model, "PMC", eb, 0,
                                          {"NRMSE": nrmse}))
    return records


def make_sweep():
    return {"DS": [
        CompressResponse("DS", "PMC", eb, part="full", compressed_size=1_000,
                         compression_ratio=2.0 + 30 * eb, num_segments=100,
                         te={"NRMSE": eb / 10})
        for eb in EBS
    ]}


def test_elbow_summaries_find_the_knee():
    summaries = elbow_summaries(make_records(), make_sweep())
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.dataset == "DS"
    assert summary.method == "PMC"
    assert 0.05 <= summary.error_bound <= 0.4
    assert summary.compression_ratio > 2.0


def test_best_models_table7():
    table = best_models(make_records())
    assert table["DS"]["NRMSE"] == "Good"  # best baseline accuracy
    assert table["DS"]["TFE"] == "Bad"  # most resilient (paper's pattern 2)


def test_average_tfe_per_model_capped_by_error_bound():
    records = make_records()
    uncapped = average_tfe_per_model(records)
    capped = average_tfe_per_model(records, {"DS": 0.1})
    assert capped[("DS", "Good")] < uncapped[("DS", "Good")]


def test_characteristic_sensitivity_filters_by_tfe():
    records = make_records()
    deltas = {"DS": {
        ("PMC", eb): {"max_kl_shift": 100 * eb, "seas_acf1": eb}
        for eb in EBS
    }}
    table = characteristic_sensitivity(
        deltas, records, tfe_threshold=0.1,
        characteristics=("max_kl_shift", "seas_acf1"))
    mean_mkls, std_mkls = table[("DS", "PMC", "max_kl_shift")]
    # only low-EB cells pass the TFE filter, so the mean stays small
    assert mean_mkls < 50
    assert std_mkls >= 0
    # the sensitivity table must not contain high-TFE cells' deltas
    included = [eb for eb in EBS if np.mean([
        r.metrics["NRMSE"] for r in records
        if r.method == "PMC" and r.error_bound == eb]) > 0]
    assert included  # sanity


def test_sensitivity_empty_when_threshold_too_low():
    records = make_records()
    deltas = {"DS": {("PMC", eb): {"max_kl_shift": 1.0} for eb in EBS}}
    table = characteristic_sensitivity(deltas, records, tfe_threshold=-1.0,
                                       characteristics=("max_kl_shift",))
    assert table == {}
