"""Spread and parent-vs-change verdicts over repeated runs.

With at least ten runs per side, paired by seed, a change *improved* a
metric when it wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the parent's
interquartile range.  Any other metric must not be worse than the
parent's median by more than the metric's BENCHMARK.json bound.  When
either side's spread (interquartile range over median) exceeds that
bound the metric is *unresolved*, unless every change run reads better
than every parent run.
"""

from __future__ import annotations

import json
import statistics

MIN_PAIRS = 10


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def judge(parent: list[float], change: list[float], direction: str,
          bound: float) -> dict:
    """Verdict for one workload x metric over seed-paired runs."""
    pairs = len(parent)
    row = {"pairs": pairs}
    if pairs < MIN_PAIRS or len(change) != pairs:
        row["verdict"] = "too few pairs"
        return row
    p_median, c_median = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    worse = ((c_median - p_median) if direction == "lower"
             else (p_median - c_median)) / p_median
    every_better = all(better(c, p, direction)
                       for c in change for p in parent)
    row.update(parent_median=p_median, parent_q1=p_q1, parent_q3=p_q3,
               change_median=c_median, change_q1=c_q1, change_q3=c_q3,
               wins=wins, worse_pct=100.0 * worse,
               parent_spread=spread(parent), change_spread=spread(change),
               bound=bound)
    if (wins >= 0.9 * pairs and better(c_median, p_median, direction)
            and abs(c_median - p_median) > p_q3 - p_q1):
        row["verdict"] = "improved"
    elif every_better:
        row["verdict"] = "no regression"
    elif max(row["parent_spread"], row["change_spread"]) > bound:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "no regression"
    return row


def load_records(path: str) -> list[dict]:
    """Run records from a JSONL file of ``run.py --out`` lines, or from
    a sweep report (its first set of untraced runs)."""
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]
    return document["sets"][0] if "sets" in document else [document]


def compare(parent: list[dict], change: list[dict], benchmark: dict
            ) -> list[dict]:
    """One row per workload x end-to-end metric."""
    def by_seed(records: list[dict], workload: str) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for record in records:
            if record["workload"] == workload and not record["trace"]:
                out.setdefault(record["seed"], record["metrics"])
        return out

    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        p_runs, c_runs = by_seed(parent, workload), by_seed(change, workload)
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = judge([p_runs[s][name] for s in seeds],
                        [c_runs[s][name] for s in seeds], metric["better"],
                        metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
    return rows


def render(rows: list[dict]) -> list[str]:
    lines = [f"{'workload':<12s}{'metric':<16s}{'parent':>12s}"
             f"{'change':>12s}{'worse':>9s}{'wins':>7s}{'spread':>9s}"
             f"{'bound':>7s}  verdict"]
    for row in rows:
        if "parent_median" not in row:
            lines.append(f"{row['workload']:<12s}{row['metric']:<16s}"
                         f"{'':>56s}  {row['verdict']} ({row['pairs']})")
            continue
        spread_pct = 100.0 * max(row["parent_spread"], row["change_spread"])
        lines.append(
            f"{row['workload']:<12s}{row['metric']:<16s}"
            f"{row['parent_median']:>12.4g}{row['change_median']:>12.4g}"
            f"{row['worse_pct']:>8.1f}%{row['wins']:>4d}/{row['pairs']:<2d}"
            f"{spread_pct:>8.1f}%{100 * row['bound']:>6.0f}%  "
            f"{row['verdict']}")
    return lines
