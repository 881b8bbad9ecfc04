"""Table 6 — relative difference of the five key characteristics at
TFE <= 0.1.

For cells where forecasting accuracy is still acceptable (TFE below 10%),
reports mean (std) of the relative deviation of max_kl_shift (MKLS),
max_level_shift (MLS), seas_acf1 (SACF1), max_var_shift (MVS), and
unitroot_pp (URPP), per dataset and compressor, and asserts the paper's
reading: the stable trio MLS/SACF1/MVS barely moves while MKLS (and to a
lesser degree URPP) swings wildly.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.core import characteristic_sensitivity
from repro.core.report import KEY_CHARACTERISTICS

LABELS = {"max_kl_shift": "MKLS", "max_level_shift": "MLS",
          "seas_acf1": "SACF1", "max_var_shift": "MVS",
          "unitroot_pp": "URPP"}


def build_table(service, all_records):
    config = service.config
    deltas = {name: service.feature_deltas(name, config.compressors,
                                           config.error_bounds)
              for name in config.datasets}
    return characteristic_sensitivity(deltas, all_records, tfe_threshold=0.1)


def test_table6(benchmark, service, all_records):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1,
                               args=(service, all_records))
    print_header("Table 6: mean (std) relative difference (%) of the five "
                 "key characteristics when TFE <= 0.1")
    print(f"{'dataset':9s}{'method':7s}" + "".join(
        f"{LABELS[c]:>16s}" for c in KEY_CHARACTERISTICS))
    for dataset in service.config.datasets:
        for method in service.config.compressors:
            cells = []
            for characteristic in KEY_CHARACTERISTICS:
                entry = table.get((dataset, method, characteristic))
                cells.append("             - " if entry is None
                             else f"{entry[0]:>8.1f} ({entry[1]:>4.1f})")
            print(f"{dataset:9s}{method:7s}" + "".join(cells))

    def averages(characteristic):
        values = [mean for (d, m, c), (mean, _) in table.items()
                  if c == characteristic]
        return float(np.mean(values)) if values else float("nan")

    stable = [averages(c) for c in ("max_level_shift", "seas_acf1",
                                    "max_var_shift")]
    volatile = averages("max_kl_shift")
    # the stable trio deviates by a few percent while MKLS moves by tens
    # to hundreds of percent (paper: 0.6-2.7 vs 16-74)
    assert all(np.isfinite(v) for v in stable)
    assert volatile > 4 * max(stable)
    assert max(stable) < 60
