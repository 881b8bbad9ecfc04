"""Counters, gauges, and fixed-bucket histograms.

The registry is deliberately tiny: counters are monotonically increasing
floats, gauges are last-write-wins floats, and histograms bin
observations into one *shared, fixed* log-spaced bucket ladder.  Fixed
buckets are what make multi-process aggregation exact — merging two
histograms adds bucket counts elementwise (plus sum/count/min/max), which
is associative and commutative, so worker snapshots can be folded in any
order and always produce the same totals (pinned by a hypothesis property
test).

Disabled-mode contract: the module-level :func:`inc` / :func:`observe` /
:func:`set_gauge` helpers cost one module-global load and a ``None``
check when no registry is enabled.  Instrumented hot paths either call
them directly (per-call sites like the cache) or guard a block of work
with :func:`enabled` (per-epoch grad norms in the training loop).
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from typing import Any

#: shared histogram bucket upper bounds (seconds, bytes, ratios — the
#: ladder spans anything the pipeline observes); values above the last
#: bound land in the overflow bucket
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (exponent / 2.0) for exponent in range(-18, 19))


class Histogram:
    """Fixed-bucket histogram with exact, associative merge."""

    __slots__ = ("counts", "total", "count", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.total = 0.0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the fixed bucket ladder.

        Walks the cumulative counts to the bucket where rank ``q * count``
        falls and returns its upper bound, clamped to the observed
        min/max — an upper estimate whose resolution is one bucket step
        (a factor of ``sqrt(10)``).  Exact for the tails the SLO gates
        care about when observations cluster within a bucket.
        """
        if self.count == 0:
            return math.nan
        target = max(1.0, q * self.count)
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                bound = (BUCKET_BOUNDS[index]
                         if index < len(BUCKET_BOUNDS) else self.maximum)
                return min(max(bound, self.minimum), self.maximum)
        return self.maximum

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both operands' observations."""
        merged = Histogram()
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.total = self.total + other.total
        merged.count = self.count + other.count
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def to_dict(self) -> dict[str, Any]:
        return {"counts": list(self.counts), "total": self.total,
                "count": self.count,
                "min": None if self.count == 0 else self.minimum,
                "max": None if self.count == 0 else self.maximum}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        histogram = cls()
        histogram.counts = list(data["counts"])
        histogram.total = float(data["total"])
        histogram.count = int(data["count"])
        histogram.minimum = (math.inf if data.get("min") is None
                             else float(data["min"]))
        histogram.maximum = (-math.inf if data.get("max") is None
                             else float(data["max"]))
        return histogram


class MetricsRegistry:
    """Thread-safe store for one process's counters/gauges/histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: total metric API calls since creation (never reset) — the bench
        #: uses this to count instrumentation events per operation
        self.events = 0

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.events += 1
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.events += 1
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.events += 1
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of the current state (does not reset)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.to_dict()
                               for name, h in self.histograms.items()},
            }

    def flush(self) -> dict[str, Any]:
        """Snapshot and reset counters/histograms (gauges keep last value).

        Flushes are deltas: summing every flushed snapshot of every
        process counts each increment exactly once.
        """
        with self._lock:
            snapshot = {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.to_dict()
                               for name, h in self.histograms.items()},
            }
            self.counters.clear()
            self.histograms.clear()
            return snapshot


def quantile_from_dict(data: dict[str, Any], q: float) -> float:
    """Quantile estimate straight from a ``Histogram.to_dict`` payload.

    The shape ``/v1/metricz`` serves — lets clients (the loadgen SLO
    harness) read tail latencies and batch-occupancy percentiles off the
    wire without reconstructing registries.
    """
    return Histogram.from_dict(data).quantile(q)


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold flushed snapshots into run totals (sum counters, merge hists)."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        gauges.update(snapshot.get("gauges", {}))
        for name, data in snapshot.get("histograms", {}).items():
            histogram = Histogram.from_dict(data)
            if name in histograms:
                histogram = histograms[name].merge(histogram)
            histograms[name] = histogram
    return {"counters": counters, "gauges": gauges,
            "histograms": {name: h.to_dict()
                           for name, h in histograms.items()}}


_registry: MetricsRegistry | None = None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install a process-global registry (a fresh one by default)."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


def disable() -> None:
    global _registry
    _registry = None


def active() -> MetricsRegistry | None:
    return _registry


def _reset_in_child() -> None:
    """A forked child starts from an empty registry.

    Pool and queue workers flush their registry into the trace after
    every attempt; one inherited from the parent would write the
    parent's unflushed counts again.  A fresh registry (rather than a
    cleared one) also drops a lock another thread may have held at fork.
    """
    global _registry
    if _registry is not None:
        _registry = MetricsRegistry()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def enabled() -> bool:
    return _registry is not None


def inc(name: str, amount: float = 1.0) -> None:
    registry = _registry
    if registry is None:
        return
    registry.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    registry = _registry
    if registry is None:
        return
    registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    registry = _registry
    if registry is None:
        return
    registry.observe(name, value)
