"""Per-layer self-time table from the spans a traced run recorded.

Self time is a span's duration minus the part of its interval that its
children cover.  Children are the spans opened under it on the same
thread plus, for a blocked ``server.queue`` submit, the batch that
served it on the batcher thread.  Summed over every span, self times
make up the table's total, so the layer rows plus the unattributed
remainder (the self time of the benchmark's own frames, ``rep`` and
``connection``) always add up to 100%.
"""

from __future__ import annotations

import json
import statistics

from tracing import ROOT_NAMES

#: per-layer metrics reported by a traced run, in BENCHMARK.json order:
#: (metric name, unit, how it is computed)
PER_LAYER = (
    ("datasets.load.calls_per_op", "count", ("calls", "datasets.load")),
    ("datasets.load.share_pct", "%", ("share", "datasets.load")),
    ("compression.compress.calls_per_op", "count",
     ("calls", "compression.compress")),
    ("compression.compress.share_pct", "%",
     ("share", "compression.compress")),
    ("compression.gzip.share_pct", "%", ("share", "compression.gzip")),
    ("streaming.extend.calls_per_op", "count",
     ("calls", "streaming.extend")),
    ("streaming.extend.share_pct", "%", ("share", "streaming.extend")),
    ("features.compute.calls_per_op", "count",
     ("calls", "features.compute")),
    ("features.compute.share_pct", "%", ("share", "features.compute")),
    ("features.compute.unique_ratio", "ratio", ("unique", "features.compute")),
    ("forecasting.fit.share_pct", "%", ("share", "forecasting.fit")),
    ("forecasting.predict.calls_per_op", "count",
     ("calls", "forecasting.predict")),
    ("forecasting.predict.share_pct", "%", ("share", "forecasting.predict")),
    ("rolling.update.share_pct", "%", ("share", "rolling.update")),
    ("metrics.score.share_pct", "%", ("share", "metrics.score")),
    ("metrics.te.share_pct", "%", ("share", "metrics.te")),
    ("tasks.detect.calls_per_op", "count", ("calls", "tasks.detect")),
    ("tasks.detect.share_pct", "%", ("share", "tasks.detect")),
    ("runtime.run.calls_per_op", "count", ("calls", "runtime.run")),
    ("runtime.run.share_pct", "%", ("share", "runtime.run")),
    ("cache.get.calls_per_op", "count", ("calls", "cache.get")),
    ("cache.get.share_pct", "%", ("share", "cache.get")),
    ("cache.hit_ratio", "ratio", ("hits", "cache.probe")),
    ("cache.put.calls_per_op", "count", ("calls", "cache.put")),
    ("cache.put.share_pct", "%", ("share", "cache.put")),
    ("api.batch.calls_per_op", "count", ("calls", "api.batch")),
    ("api.batch.share_pct", "%", ("share", "api.batch")),
    ("api.raw_size.share_pct", "%", ("share", "api.raw_size")),
    ("server.http.share_pct", "%", ("share", "server.http")),
    ("server.queue.share_pct", "%", ("share", "server.queue")),
    ("server.batch.occupancy", "count", ("occupancy", "api.batch")),
    ("sessions.push.calls_per_op", "count", ("calls", "sessions.push")),
    ("sessions.push.share_pct", "%", ("share", "sessions.push")),
    ("sessions.snapshot.share_pct", "%", ("share", "sessions.snapshot")),
    ("unattributed_pct", "%", ("unattributed", None)),
    ("trace_overhead_pct", "%", ("overhead", None)),
)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def root_of(spans: list) -> list[int]:
    """Index of each span's same-thread root (parents precede children)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        parent = span[1]
        roots.append(index if parent < 0 else roots[parent])
    return roots


def window(spans: list, start: float, end: float) -> list:
    """The spans whose root began inside ``[start, end]``, reindexed.

    A daemon records its set-up too; the benchmark keeps only the trees
    its measured phase caused.
    """
    roots = root_of(spans)
    keep = [i for i, span in enumerate(spans)
            if start <= spans[roots[i]][2] <= end]
    position = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        name, parent, begin, finish, tag = spans[old]
        if isinstance(tag, list):
            tag = [position[i] for i in tag if i in position]
        out.append([name, position.get(parent, -1), begin, finish, tag])
    return out


def covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for begin, finish in sorted(intervals):
        begin, finish = max(begin, reach), min(finish, end)
        if finish > begin:
            total += finish - begin
            reach = finish
    return total


def self_times(spans: list) -> list[float]:
    """Self time of every span: duration minus its children's cover."""
    children: list[list] = [[] for _ in spans]
    for name, parent, begin, finish, tag in spans:
        if parent >= 0:
            children[parent].append((begin, finish))
        if isinstance(tag, list):
            # a batch covers, on another thread, each submit it served
            for waiter in tag:
                children[waiter].append((begin, finish))
    return [max(0.0, (finish - begin) - covered(begin, finish, children[i]))
            for i, (_, _, begin, finish, _) in enumerate(spans)]


def table(spans: list, per_span_s: float = 0.0, extra_s: float = 0.0
          ) -> dict:
    """Rows per span name plus the totals the per-layer metrics need."""
    selfs = self_times(spans)
    total = sum(selfs)
    rows: dict[str, dict] = {}
    for span, own, root in zip(spans, selfs, root_of(spans)):
        row = rows.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                        "tags": []})
        row["calls"] += 1
        row["self_s"] += own
        if span[4] is not None:
            row["tags"].append((root, span[4]))
    # each submit waits from its own start until its batch starts
    queue_waits = [begin - spans[waiter][2]
                   for _, _, begin, _, tag in spans if isinstance(tag, list)
                   for waiter in tag]
    for row in rows.values():
        row["share_pct"] = 100.0 * row["self_s"] / total if total else 0.0
    unattributed = sum(rows[name]["self_s"] for name in ROOT_NAMES
                       if name in rows)
    return {
        "rows": rows,
        "total_s": total,
        "spans": len(spans),
        "unattributed_pct": 100.0 * unattributed / total if total else 0.0,
        "trace_overhead_pct": (100.0 * (len(spans) * per_span_s + extra_s)
                               / total if total else 0.0),
        "queue_wait_p50_ms": (1e3 * statistics.median(queue_waits)
                              if queue_waits else 0.0),
    }


def per_layer_metrics(summary: dict, operations: int) -> dict[str, float]:
    """The BENCHMARK.json per-layer metrics of one traced run."""
    rows = summary["rows"]
    out: dict[str, float] = {}
    for metric, _, (kind, name) in PER_LAYER:
        row = rows.get(name, {"calls": 0, "self_s": 0.0, "tags": [],
                              "share_pct": 0.0})
        tags = row["tags"]
        if kind == "calls":
            value = row["calls"] / operations if operations else 0.0
        elif kind == "share":
            value = row["share_pct"]
        elif kind == "unique":
            # distinct inputs within each root (one grid rep) over calls
            value = len(set(tags)) / len(tags) if tags else 0.0
        elif kind == "hits":
            value = (sum(1 for _, hit in tags if hit) / len(tags)
                     if tags else 0.0)
        elif kind == "occupancy":
            sizes = [len(tag) for _, tag in tags if tag]
            value = sum(sizes) / len(sizes) if sizes else 0.0
        else:
            value = summary[metric]
        out[metric] = value
    return out


def render(summary: dict, operations: int) -> list[str]:
    """The human-readable layer table (every layer, self ms included)."""
    lines = [f"{'layer':<22s}{'calls':>9s}{'self ms':>11s}"
             f"{'ms/call':>10s}{'ms/op':>10s}{'share':>8s}"]
    rows = sorted(summary["rows"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        self_ms = 1e3 * row["self_s"]
        lines.append(f"{name:<22s}{row['calls']:>9d}{self_ms:>11.1f}"
                     f"{self_ms / row['calls']:>10.3f}"
                     f"{self_ms / max(operations, 1):>10.3f}"
                     f"{row['share_pct']:>7.1f}%")
    lines.append(f"total {1e3 * summary['total_s']:.1f} ms over "
                 f"{operations} ops, {summary['spans']} spans; "
                 f"unattributed {summary['unattributed_pct']:.2f}%, "
                 f"trace overhead {summary['trace_overhead_pct']:.2f}%, "
                 f"queue wait p50 {summary['queue_wait_p50_ms']:.2f} ms")
    return lines
