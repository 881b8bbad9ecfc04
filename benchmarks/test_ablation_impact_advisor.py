"""Ablation A6 — learning to predict compression impact (§5).

Section 5 proposes models that predict the impact of lossy compression on
analytics so users can pick methods/bounds without running the analytics.
This bench trains the :class:`CompressionAdvisor` on five datasets' cells
and predicts the held-out sixth dataset's TFE from its characteristic
deltas alone (leave-one-dataset-out), asserting that predicted and
measured TFE rank-correlate on unseen data.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from conftest import print_header

from repro.core import CompressionAdvisor, spearman
from repro.core.importance import build_matrix
from repro.core.results import tfe_table

HELD_OUT = "ETTm2"


def run_study(service, all_records):
    config = service.config
    deltas = {name: service.feature_deltas(name, config.compressors,
                                           config.error_bounds)
              for name in config.datasets}
    train_deltas = {k: v for k, v in deltas.items() if k != HELD_OUT}
    train_records = [r for r in all_records if r.dataset != HELD_OUT]
    advisor = CompressionAdvisor(n_estimators=120).fit(train_deltas,
                                                       train_records)

    held_records = [r for r in all_records if r.dataset == HELD_OUT]
    x, y, _ = build_matrix({HELD_OUT: deltas[HELD_OUT]}, held_records)
    predicted = advisor._model.predict(x)[:, 0]
    return advisor, y, predicted


def test_ablation_impact_advisor(benchmark, service, all_records):
    advisor, measured, predicted = benchmark.pedantic(
        run_study, rounds=1, iterations=1, args=(service, all_records))
    rho = spearman(predicted, measured)
    print_header(f"Ablation A6: predicting {HELD_OUT}'s TFE from "
                 "characteristic deltas (leave-one-dataset-out)")
    print(f"advisor train R^2 = {advisor.r_squared:.2f}")
    print(f"held-out cells    = {len(measured)}")
    print(f"Spearman(predicted, measured) = {rho:.2f}")
    order = np.argsort(measured)
    print(f"{'measured TFE':>14s}{'predicted':>12s}")
    for i in order[:: max(len(order) // 10, 1)]:
        print(f"{measured[i]:>14.3f}{predicted[i]:>12.3f}")

    # the advisor generalizes: predicted impact ranks unseen cells well
    assert advisor.r_squared > 0.6
    assert rho > 0.5
    # and it separates benign from harmful cells in absolute terms
    benign = predicted[measured < 0.05]
    harmful = predicted[measured > 0.5]
    if len(benign) and len(harmful):
        assert benign.mean() < harmful.mean()
