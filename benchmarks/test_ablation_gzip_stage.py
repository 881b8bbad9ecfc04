"""Ablation A1 — the shared gzip stage and columnar serialization.

Section 4.2 argues that "simple lossy compression methods like PMC can
significantly increase their CR by incorporating lossless compression like
gzip".  This ablation quantifies the gzip stage's contribution for each
method (payload bytes before vs after gzip) and shows that PMC's
constant-value payload benefits the most — the mechanism behind PMC
overtaking SWING.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header

from repro.compression import make
from repro.compression.base import gunzip_bytes
from repro.datasets import load

BOUNDS = (0.05, 0.2, 0.5)


def build_table():
    out = {}
    for name in ("ETTm1", "ElecDem"):
        series = load(name, length=3_000).target_series
        for method in ("PMC", "SWING", "SZ"):
            compressor = make(method)
            for eb in BOUNDS:
                result = compressor.compress(series, eb)
                out[(name, method, eb)] = (
                    len(gunzip_bytes(result.compressed)),
                    result.compressed_size)
    return out


def test_ablation_gzip(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print_header("Ablation A1: payload bytes before/after the gzip stage "
                 "(gain = before/after)")
    print(f"{'dataset':9s}{'method':7s}" + "".join(f"{eb:>16.2f}" for eb in BOUNDS))
    gains = {}
    for (dataset, method, eb), (before, after) in table.items():
        gains.setdefault(method, []).append(before / after)
    for dataset in ("ETTm1", "ElecDem"):
        for method in ("PMC", "SWING", "SZ"):
            cells = []
            for eb in BOUNDS:
                before, after = table[(dataset, method, eb)]
                cells.append(f"{before:>6d}/{after:<5d}{before / after:>3.1f}x")
            print(f"{dataset:9s}{method:7s}" + "".join(cells))

    mean_gain = {method: float(np.mean(values))
                 for method, values in gains.items()}
    print(f"\nmean gzip gain: " + ", ".join(
        f"{m} {g:.2f}x" for m, g in mean_gain.items()))
    # gzip helps every segment-based method on average (SZ already entropy-
    # codes its residuals, so its gain is smallest)
    assert mean_gain["PMC"] > 1.0 and mean_gain["SWING"] > 1.0
    assert mean_gain["SZ"] <= max(mean_gain["PMC"], mean_gain["SWING"])
    # and PMC's single-coefficient segments always end up smaller on disk
    # than SWING's two-coefficient ones at the same bound (Section 4.2)
    for (dataset, method, eb), (before, after) in table.items():
        if method == "PMC":
            assert after <= table[(dataset, "SWING", eb)][1], (dataset, eb)
