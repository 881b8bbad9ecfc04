"""Table 7 — best models per dataset by NRMSE and by TFE.

Regenerates the two rankings and asserts the paper's structural claims:
the accuracy winner and the resilience winner differ on most datasets, and
simple models (Arima / GBoost / DLinear / GRU) dominate the TFE row while
complex attention models dominate nowhere near as much.
"""

from __future__ import annotations

from conftest import print_header

from repro.core import best_models

SIMPLE_MODELS = {"Arima", "GBoost", "DLinear", "GRU"}


def test_table7(benchmark, service, all_records):
    table = benchmark.pedantic(best_models, rounds=1, iterations=1,
                               args=(all_records,))
    datasets = service.config.datasets
    print_header("Table 7: best models based on NRMSE and TFE")
    print(f"{'':8s}" + "".join(f"{d:>12s}" for d in datasets))
    for row in ("NRMSE", "TFE"):
        print(f"{row:8s}" + "".join(f"{table[d][row]:>12s}" for d in datasets))

    # the two rows differ on most datasets (accuracy != resilience)
    differing = sum(table[d]["NRMSE"] != table[d]["TFE"] for d in datasets)
    assert differing >= len(datasets) // 2
    # simple models win the resilience row more often than not (paper:
    # GBoost/GRU/Arima/DLinear take 6 of 6 TFE cells)
    simple_wins = sum(table[d]["TFE"] in SIMPLE_MODELS for d in datasets)
    assert simple_wins >= len(datasets) // 2
