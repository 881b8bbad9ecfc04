"""Result records produced by the evaluation and their aggregations."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.metrics import tfe

#: method label used for uncompressed (baseline) runs
RAW = "RAW"


@dataclass(frozen=True)
class ScenarioRecord:
    """One (dataset, model, method, error bound, seed) task outcome.

    ``task`` names the downstream task that produced the record:
    ``"forecasting"`` (the default — every pre-task record) scores a
    forecaster's accuracy metrics; ``"anomaly"`` scores a detector's
    tolerance-matched F1, with ``model`` carrying the detector name.
    """

    dataset: str
    model: str
    method: str  # RAW for the baseline
    error_bound: float
    seed: int
    metrics: dict[str, float]
    retrained: bool = False
    task: str = "forecasting"


def mean_over_seeds(records: list[ScenarioRecord]) -> dict[tuple, dict[str, float]]:
    """Average metrics over seeds.

    Returns ``(dataset, model, method, error_bound, retrained) ->
    {metric: mean}``.
    """
    grouped: dict[tuple, list[dict[str, float]]] = defaultdict(list)
    for record in records:
        key = (record.dataset, record.model, record.method,
               record.error_bound, record.retrained)
        grouped[key].append(record.metrics)
    out = {}
    for key, metric_dicts in grouped.items():
        names = metric_dicts[0].keys()
        out[key] = {name: float(np.mean([m[name] for m in metric_dicts]))
                    for name in names}
    return out


def tfe_table(records: list[ScenarioRecord], metric: str = "NRMSE"
              ) -> dict[tuple, float]:
    """TFE per (dataset, model, method, error_bound, retrained) vs baseline.

    The baseline for each (dataset, model) pair is the RAW entry, matching
    Definition 9 and the paper's use of Table 2 as the denominator.
    """
    means = mean_over_seeds(records)
    baselines: dict[tuple[str, str], float] = {}
    for (dataset, model, method, _, retrained), metrics in means.items():
        if method == RAW and not retrained:
            baselines[(dataset, model)] = metrics[metric]
    out: dict[tuple, float] = {}
    for key, metrics in means.items():
        dataset, model, method, error_bound, retrained = key
        if method == RAW:
            continue
        baseline = baselines.get((dataset, model))
        if baseline is None:
            raise KeyError(
                f"no RAW baseline for ({dataset}, {model}); run the baseline "
                "scenario before computing TFE"
            )
        out[key] = tfe(baseline, metrics[metric])
    return out


def confidence_interval95(values: np.ndarray) -> tuple[float, float]:
    """Mean +/- 1.96 standard errors (the paper's Figure 4 error bars)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("confidence interval of an empty sample")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    half_width = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
    return mean, half_width
