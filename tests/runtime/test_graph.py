"""Task-graph construction, deduplication, and topological ordering."""

import pytest

from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import ForecastJob, JobSpec


class StubJob:
    """Graph-only stand-in: explicit key and mutable dependency list."""

    kind = "stub"

    def __init__(self, name, deps=()):
        self.name = name
        self.deps = list(deps)

    def key(self):
        return f"stub-{self.name}"

    def dependencies(self):
        return tuple(self.deps)

    def run(self, ctx, deps):
        return self.name


def test_duplicate_specs_share_one_node():
    graph = TaskGraph()
    a = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                    method="PMC", error_bound=0.1)
    b = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                    method="PMC", error_bound=0.1)
    assert graph.add(a) == graph.add(b)
    # one forecast node, one shared train node, one shared compress node
    assert len(graph) == 3


def test_grid_cells_share_the_trained_model():
    graph = TaskGraph()
    for bound in (0.1, 0.2, 0.4):
        graph.add(ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                              method="PMC", error_bound=bound))
    counts = graph.counts_by_kind()
    assert counts == {"forecast": 3, "train": 1, "compress": 3}


def test_dependencies_recorded_and_targets_tracked():
    graph = TaskGraph()
    job = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                      method="PMC", error_bound=0.1)
    key = graph.add(job)
    assert graph.targets == (key,)
    dep_kinds = [graph.job(k).kind for k in graph.dependencies(key)]
    assert dep_kinds == ["train", "compress"]
    # dependencies were added as non-targets
    assert all(k not in graph.targets for k in graph.dependencies(key))


def test_topological_order_puts_dependencies_first():
    graph = TaskGraph()
    c = StubJob("c")
    b = StubJob("b", [c])
    a = StubJob("a", [b, c])
    graph.add(a)
    order = graph.topological_order()
    assert order.index(c.key()) < order.index(b.key())
    assert order.index(b.key()) < order.index(a.key())


def test_topological_order_is_deterministic():
    def build():
        graph = TaskGraph()
        shared = StubJob("shared")
        for name in ("x", "y", "z"):
            graph.add(StubJob(name, [shared]))
        return graph

    assert build().topological_order() == build().topological_order()


def test_cycle_detection():
    graph = TaskGraph()
    a = StubJob("a")
    b = StubJob("b", [a])
    a.deps.append(b)  # close the loop a -> b -> a
    graph.add(a)
    with pytest.raises(ValueError, match="cycle"):
        graph.topological_order()


def test_base_jobspec_is_abstract_enough():
    with pytest.raises(NotImplementedError):
        JobSpec().run(None, {})
