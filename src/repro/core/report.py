"""Analyses that turn scenario records into the paper's tables.

Covers the elbow summary of Table 5 (Section 4.3.2), the characteristic
sensitivity of Table 6 (Section 4.3.3), the best-model summary of Table 7,
and the per-model average TFE behind Figure 6.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.elbow import kneedle
from repro.core.results import ScenarioRecord, mean_over_seeds, tfe_table

if TYPE_CHECKING:
    from repro.api.responses import CompressResponse

#: Table 6's five monitored characteristics
KEY_CHARACTERISTICS = ("max_kl_shift", "max_level_shift", "seas_acf1",
                       "max_var_shift", "unitroot_pp")


@dataclass(frozen=True)
class ElbowSummary:
    """Median elbow metrics for one (dataset, method) pair (Table 5)."""

    dataset: str
    method: str
    error_bound: float
    te: float
    compression_ratio: float
    tfe: float


def elbow_summaries(records: list[ScenarioRecord],
                    sweeps: dict[str, list[CompressResponse]],
                    metric: str = "NRMSE") -> list[ElbowSummary]:
    """Extract per-model elbows of the TFE-vs-TE curves and take medians.

    For every (dataset, method, model) the TFE curve over error bounds is
    paired with the dataset-level TE of that compressor, the Kneedle elbow
    located, and the per-model elbow statistics reduced to their median —
    exactly how Table 5 is built.
    """
    tfe_by_cell = tfe_table(records, metric)
    te_lookup: dict[tuple[str, str, float], CompressResponse] = {}
    for dataset, sweep in sweeps.items():
        for record in sweep:
            te_lookup[(dataset, record.method, record.error_bound)] = record

    curves: dict[tuple[str, str, str], list[tuple[float, float]]] = defaultdict(list)
    for (dataset, model, method, error_bound, retrained), value in \
            tfe_by_cell.items():
        if retrained:
            continue
        curves[(dataset, method, model)].append((error_bound, value))

    per_pair: dict[tuple[str, str], list[tuple[float, float, float, float]]] = \
        defaultdict(list)
    for (dataset, method, model), points in curves.items():
        points.sort()
        error_bounds = np.array([p[0] for p in points])
        tfe_values = np.array([p[1] for p in points])
        te_values = np.array([
            te_lookup[(dataset, method, eb)].te[metric] for eb in error_bounds
        ])
        if len(points) < 3:
            continue
        index = kneedle(te_values, tfe_values)
        sweep_record = te_lookup[(dataset, method, float(error_bounds[index]))]
        per_pair[(dataset, method)].append((
            float(error_bounds[index]), float(te_values[index]),
            sweep_record.compression_ratio, float(tfe_values[index])))

    summaries = []
    for (dataset, method), rows in sorted(per_pair.items()):
        array = np.array(rows)
        medians = np.median(array, axis=0)
        summaries.append(ElbowSummary(dataset, method, *map(float, medians)))
    return summaries


def characteristic_sensitivity(
        deltas: dict[str, dict[tuple[str, float], dict[str, float]]],
        records: list[ScenarioRecord],
        tfe_threshold: float = 0.1,
        characteristics: tuple[str, ...] = KEY_CHARACTERISTICS,
        metric: str = "NRMSE",
) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Table 6: mean and std of characteristic deltas where TFE <= threshold.

    ``deltas`` maps dataset -> (method, error bound) -> feature -> delta %.
    Returns ``(dataset, method, characteristic) -> (mean, std)``.
    """
    tfe_by_cell = tfe_table(records, metric)
    # average TFE across models per (dataset, method, eb)
    cell_values: dict[tuple[str, str, float], list[float]] = defaultdict(list)
    for (dataset, model, method, error_bound, retrained), value in \
            tfe_by_cell.items():
        if not retrained:
            cell_values[(dataset, method, error_bound)].append(value)

    out: dict[tuple[str, str, str], tuple[float, float]] = {}
    grouped: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for dataset, per_cell in deltas.items():
        for (method, error_bound), features in per_cell.items():
            values = cell_values.get((dataset, method, error_bound))
            if not values or float(np.mean(values)) > tfe_threshold:
                continue
            for characteristic in characteristics:
                delta = features.get(characteristic, float("nan"))
                if np.isfinite(delta):
                    grouped[(dataset, method, characteristic)].append(delta)
    for key, values in grouped.items():
        out[key] = (float(np.mean(values)), float(np.std(values)))
    return out


def best_models(records: list[ScenarioRecord], metric: str = "NRMSE"
                ) -> dict[str, dict[str, str]]:
    """Table 7: per dataset, the best model by baseline metric and by TFE."""
    means = mean_over_seeds(records)
    tfe_by_cell = tfe_table(records, metric)

    baseline_best: dict[str, tuple[str, float]] = {}
    for (dataset, model, method, _, retrained), metrics in means.items():
        if method != "RAW" or retrained:
            continue
        value = metrics[metric]
        if dataset not in baseline_best or value < baseline_best[dataset][1]:
            baseline_best[dataset] = (model, value)

    tfe_mean: dict[tuple[str, str], list[float]] = defaultdict(list)
    for (dataset, model, method, error_bound, retrained), value in \
            tfe_by_cell.items():
        if not retrained:
            tfe_mean[(dataset, model)].append(value)
    tfe_best: dict[str, tuple[str, float]] = {}
    for (dataset, model), values in tfe_mean.items():
        average = float(np.mean(values))
        if dataset not in tfe_best or average < tfe_best[dataset][1]:
            tfe_best[dataset] = (model, average)

    out: dict[str, dict[str, str]] = {}
    for dataset in baseline_best:
        out[dataset] = {
            metric: baseline_best[dataset][0],
            "TFE": tfe_best.get(dataset, ("?",))[0],
        }
    return out


def average_tfe_per_model(records: list[ScenarioRecord],
                          max_error_bound: dict[str, float] | None = None,
                          metric: str = "NRMSE"
                          ) -> dict[tuple[str, str], float]:
    """Figure 6: mean TFE per (dataset, model), optionally capping the EB."""
    tfe_by_cell = tfe_table(records, metric)
    grouped: dict[tuple[str, str], list[float]] = defaultdict(list)
    for (dataset, model, method, error_bound, retrained), value in \
            tfe_by_cell.items():
        if retrained:
            continue
        if max_error_bound and error_bound > max_error_bound.get(
                dataset, float("inf")):
            continue
        grouped[(dataset, model)].append(value)
    return {key: float(np.mean(values)) for key, values in grouped.items()}
