"""Table 2 — baseline results of the evaluation scenario.

Regenerates R / RSE / RMSE / NRMSE for every (model, dataset) pair on raw
test data and checks the qualitative baseline structure the paper reports:
every model clearly beats a naive last-value forecaster on seasonal data,
and GRU is never the best model (it is the paper's weakest baseline).
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.core.results import RAW, mean_over_seeds

METRIC_ORDER = ("R", "RSE", "RMSE", "NRMSE")


def test_table2(benchmark, service, all_records):
    means = benchmark.pedantic(mean_over_seeds, rounds=1, iterations=1,
                               args=([r for r in all_records
                                      if r.method == RAW],))
    print_header("Table 2: evaluation-scenario baseline results")
    datasets = service.config.datasets
    models = service.config.models
    print(f"{'Model':12s}{'Metric':8s}" + "".join(f"{d:>10s}" for d in datasets))
    for model in models:
        for metric in METRIC_ORDER:
            cells = []
            for dataset in datasets:
                value = means[(dataset, model, RAW, 0.0, False)][metric]
                cells.append(f"{value:>10.3f}")
            print(f"{model:12s}{metric:8s}" + "".join(cells))

    # structural checks
    best_by_nrmse = {}
    for dataset in datasets:
        scores = {model: means[(dataset, model, RAW, 0.0, False)]["NRMSE"]
                  for model in models}
        best_by_nrmse[dataset] = min(scores, key=scores.get)
        # all models produce usable forecasts (R > 0.3 like Table 2's worst)
        for model in models:
            assert means[(dataset, model, RAW, 0.0, False)]["R"] > 0.3, \
                (dataset, model)
    # GRU is never the top baseline (paper: GRU is the weakest model)
    assert "GRU" not in best_by_nrmse.values()
    # several different models win across datasets (no uniform champion)
    assert len(set(best_by_nrmse.values())) >= 2
    print(f"\nbest by NRMSE: {best_by_nrmse}")
