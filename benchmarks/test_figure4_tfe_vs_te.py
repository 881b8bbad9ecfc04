"""Figure 4 — TFE versus TE with 95% confidence intervals across models.

Regenerates the per-dataset TFE-vs-TE series per compressor (mean across
the seven forecasting models, CI bars across models) and asserts the
paper's reading: minor TEs do not hurt accuracy, TFE grows super-linearly
with TE, and PMC/SWING sit at or below SZ's TFE on most cells.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.core.results import confidence_interval95, tfe_table


def build_series(all_records, all_sweeps, service):
    table = tfe_table(all_records)
    te_lookup = {}
    for dataset, sweep in all_sweeps.items():
        for record in sweep:
            te_lookup[(dataset, record.method, record.error_bound)] = \
                record.te["NRMSE"]
    series = {}
    for dataset in service.config.datasets:
        for method in service.config.compressors:
            points = []
            for eb in service.config.error_bounds:
                values = [value for (d, m, c, b, r), value in table.items()
                          if d == dataset and c == method and b == eb and not r]
                mean, half = confidence_interval95(np.array(values))
                points.append((te_lookup[(dataset, method, eb)], mean, half))
            series[(dataset, method)] = sorted(points)
    return series


def test_figure4(benchmark, service, all_records, all_sweeps):
    series = benchmark.pedantic(build_series, rounds=1, iterations=1,
                                args=(all_records, all_sweeps, service))
    print_header("Figure 4: TFE vs TE (mean +/- 95% CI across models)")
    for (dataset, method), points in series.items():
        rendered = "  ".join(f"({te:.3f}: {m:+.2f}±{h:.2f})"
                             for te, m, h in points[:7])
        print(f"{dataset:8s} {method:6s} {rendered}")

    for (dataset, method), points in series.items():
        te_values = [p[0] for p in points]
        tfe_values = [p[1] for p in points]
        # minor TEs do not detrimentally influence accuracy
        assert tfe_values[0] < 0.35, (dataset, method)
        # large TEs hurt more than small ones (super-linear growth tail)
        assert max(tfe_values[-3:]) >= max(tfe_values[0], 0.0), (dataset, method)

    # compression sometimes *improves* accuracy (negative TFE somewhere)
    all_means = [m for points in series.values() for _, m, _ in points]
    assert min(all_means) < 0.02

    # PMC and SWING generally have lower-or-equal TFE than SZ at matched bounds
    wins = 0
    cells = 0
    table = tfe_table(all_records)
    for dataset in service.config.datasets:
        for eb in service.config.error_bounds:
            def mean_tfe(method):
                values = [v for (d, m, c, b, r), v in table.items()
                          if d == dataset and c == method and b == eb and not r]
                return float(np.mean(values))
            sz = mean_tfe("SZ")
            for method in ("PMC", "SWING"):
                cells += 1
                if mean_tfe(method) <= sz + 0.02:
                    wins += 1
    assert wins / cells > 0.5
