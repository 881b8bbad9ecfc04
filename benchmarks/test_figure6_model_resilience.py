"""Figure 6 — average TFE per forecasting model per dataset.

Regenerates the per-model resilience comparison at error bounds up to the
Table 5 elbow of each dataset and asserts the paper's structural findings:
no single model is both the most accurate and the most resilient
everywhere, and the best baseline model is usually not the most resilient
one (the inverse relationship of Section 4.4).
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.core import average_tfe_per_model, elbow_summaries
from repro.core.results import RAW, mean_over_seeds


def build_table(service, all_records, all_sweeps):
    summaries = elbow_summaries(all_records, all_sweeps)
    cap = {}
    for summary in summaries:
        cap[summary.dataset] = max(cap.get(summary.dataset, 0.0),
                                   summary.error_bound)
    return average_tfe_per_model(all_records, cap), cap


def test_figure6(benchmark, service, all_records, all_sweeps):
    table, cap = benchmark.pedantic(build_table, rounds=1, iterations=1,
                                    args=(service, all_records, all_sweeps))
    datasets = service.config.datasets
    models = service.config.models
    print_header("Figure 6: average TFE per model (error bounds capped at "
                 "each dataset's elbow)")
    print(f"{'model':12s}" + "".join(f"{d:>10s}" for d in datasets))
    for model in models:
        print(f"{model:12s}" + "".join(
            f"{table.get((d, model), float('nan')):>10.3f}" for d in datasets))

    most_resilient = {}
    for dataset in datasets:
        scores = {model: table[(dataset, model)] for model in models}
        most_resilient[dataset] = min(scores, key=scores.get)
    print(f"\nmost resilient: {most_resilient}")

    means = mean_over_seeds([r for r in all_records if r.method == RAW])
    best_baseline = {}
    for dataset in datasets:
        scores = {model: means[(dataset, model, RAW, 0.0, False)]["NRMSE"]
                  for model in models}
        best_baseline[dataset] = min(scores, key=scores.get)

    # no uniform champion across datasets
    assert len(set(most_resilient.values())) >= 2
    # the inverse relationship: on most datasets, the best baseline model is
    # NOT the most resilient one
    differing = sum(most_resilient[d] != best_baseline[d] for d in datasets)
    assert differing >= len(datasets) - 2
