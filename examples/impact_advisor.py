"""Choosing an error bound from *predicted* impact (the §5 direction).

Setting a lossy compressor's error bound usually means trial and error:
compress, retrain/evaluate a forecaster, repeat.  Section 5 of the paper
proposes learning a model that predicts the forecasting impact directly
from how compression perturbs the series' characteristics — then bounds
can be chosen without ever running a forecaster on the new data.

This example trains the :class:`~repro.core.advisor.CompressionAdvisor`
on a small evaluation grid (two datasets, three fast models), then asks
it to recommend the largest PMC error bound for a *new* series (the
ElecDem stand-in, unseen during training) under a 10% TFE budget.

Run:  python examples/impact_advisor.py   (takes a few minutes)
"""

from __future__ import annotations

from repro.api import ApiService, GridRequest
from repro.core import CompressionAdvisor, EvaluationConfig
from repro.datasets import load


def main() -> None:
    config = EvaluationConfig(
        datasets=("ETTm1", "Weather"),
        models=("Arima", "DLinear", "GBoost"),
        error_bounds=(0.01, 0.05, 0.1, 0.2, 0.4, 0.8),
        dataset_length=2_000,
        deep_seeds=1,
        cache_dir=None,
    )
    service = ApiService(config)
    print("building the training grid (2 datasets x 3 models x 3 methods "
          "x 6 bounds) ...")
    records, _ = service.grid(GridRequest())
    deltas = {name: service.feature_deltas(name, config.compressors,
                                           config.error_bounds)
              for name in config.datasets}

    advisor = CompressionAdvisor().fit(deltas, records)
    print(f"advisor fitted (train R^2 = {advisor.r_squared:.2f})\n")

    new_series = load("ElecDem", length=2_000).target_series
    recommendation = advisor.recommend_bound(
        new_series, "PMC", tfe_budget=0.10,
        candidate_bounds=config.error_bounds, period=48)

    print("predicted TFE per candidate bound on the UNSEEN ElecDem series:")
    print(f"{'bound':>7s}{'predicted TFE':>15s}")
    for bound, predicted in recommendation.sweep:
        marker = "  <- recommended" if bound == recommendation.error_bound \
            else ""
        print(f"{bound:>7.2f}{predicted:>15.2%}{marker}")

    if recommendation.error_bound is None:
        print("\nno candidate bound fits the 10% TFE budget")
    else:
        print(f"\nrecommendation: PMC at error bound "
              f"{recommendation.error_bound} "
              f"(predicted TFE {recommendation.predicted_tfe:+.1%}) — chosen "
              "without training a single forecaster on the new data")


if __name__ == "__main__":
    main()
