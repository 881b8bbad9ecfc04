"""Figure 2 — transformation error and compression ratio per error bound.

Regenerates both panels for every dataset: TE (NRMSE) and CR of PMC,
SWING, and SZ across the 13 error bounds, plus GORILLA's lossless CR line.
Asserts the findings of Section 4.2: lossy CRs beat GORILLA already at
eps = 0.01 (the paper's sole exception, SWING on Solar, is tolerated), SZ
has the best CR at low bounds, PMC overtakes SWING as bounds grow, and
Weather's tiny rIQD produces extreme CRs.
"""

from __future__ import annotations

from conftest import print_header

from repro.api import CompressRequest


def gorilla_ratios(service):
    """GORILLA's lossless CR per dataset, the Figure 2 baseline line."""
    names = service.config.datasets
    responses = service.compress_batch(
        [CompressRequest(name, "GORILLA", 0.0) for name in names])
    return {name: response.compression_ratio
            for name, response in zip(names, responses)}


def test_figure2(benchmark, service, all_sweeps):
    gorilla = benchmark.pedantic(gorilla_ratios, rounds=1, iterations=1,
                                 args=(service,))

    print_header("Figure 2: TE (NRMSE) and CR per error bound "
                 "(GORILLA CR as the lossless baseline)")
    for dataset, sweep in all_sweeps.items():
        print(f"\n{dataset} (GORILLA CR = {gorilla[dataset]:.2f}):")
        print(f"{'eps':>6s} " + " ".join(
            f"{m + ' TE':>10s}{m + ' CR':>10s}" for m in ("PMC", "SWING", "SZ")))
        by_method = {m: {r.error_bound: r for r in sweep if r.method == m}
                     for m in ("PMC", "SWING", "SZ")}
        for eb in service.config.error_bounds:
            cells = []
            for method in ("PMC", "SWING", "SZ"):
                record = by_method[method][eb]
                cells.append(f"{record.te['NRMSE']:>10.4f}"
                             f"{record.compression_ratio:>10.1f}")
            print(f"{eb:>6.2f} " + " ".join(cells))

    # Section 4.2 claims
    for dataset, sweep in all_sweeps.items():
        by = {(r.method, r.error_bound): r for r in sweep}
        for method in ("PMC", "SZ"):
            assert by[(method, 0.01)].compression_ratio > gorilla[dataset], \
                f"{method} at 0.01 should beat GORILLA on {dataset}"
        # SZ leads at the lowest bound (within a whisker)
        assert by[("SZ", 0.01)].compression_ratio >= 0.9 * max(
            by[("PMC", 0.01)].compression_ratio,
            by[("SWING", 0.01)].compression_ratio)
        # TE grows with the error bound
        for method in ("PMC", "SWING", "SZ"):
            assert by[(method, 0.8)].te["NRMSE"] > by[(method, 0.01)].te["NRMSE"]

    # PMC's CR beats SWING's on a clear majority of (dataset, bound) cells
    # (the paper's Figure 2 shows PMC consistently above SWING)
    pmc_wins = 0
    cells = 0
    for dataset, sweep in all_sweeps.items():
        by = {(r.method, r.error_bound): r for r in sweep}
        for eb in service.config.error_bounds:
            cells += 1
            if (by[("PMC", eb)].compression_ratio
                    >= by[("SWING", eb)].compression_ratio):
                pmc_wins += 1
    assert pmc_wins / cells > 0.6

    weather = {(r.method, r.error_bound): r for r in all_sweeps["Weather"]}
    solar = {(r.method, r.error_bound): r for r in all_sweeps["Solar"]}
    # Weather's rIQD of 5% -> extreme ratios at modest bounds (paper: >200
    # at 0.15); Solar's 200% rIQD keeps ratios low even at 0.8
    assert weather[("PMC", 0.15)].compression_ratio > 100
    assert solar[("PMC", 0.8)].compression_ratio < \
        weather[("PMC", 0.15)].compression_ratio
