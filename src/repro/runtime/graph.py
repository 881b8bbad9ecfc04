"""Dependency DAG over job specs with deterministic topological order.

A :class:`TaskGraph` collects :class:`~repro.runtime.jobs.JobSpec` nodes
keyed by their content hash, so adding the same spec twice (or two grid
cells sharing a trained model) yields one node — the single-flight
guarantee that the executor relies on.  Dependencies are discovered from
each job's ``dependencies()`` and added recursively; jobs added directly
are remembered as *targets*, the results a caller wants back.

The topological order is deterministic: Kahn's algorithm with ready nodes
processed in insertion order, so a graph built the same way schedules the
same way on every run, regardless of hash seeds or executor parallelism.
"""

from __future__ import annotations

from repro.runtime.jobs import JobSpec


class TaskGraph:
    """A DAG of content-addressed jobs with insertion-ordered scheduling."""

    def __init__(self) -> None:
        self._jobs: dict[str, JobSpec] = {}
        self._dependencies: dict[str, tuple[str, ...]] = {}
        self._targets: dict[str, None] = {}  # insertion-ordered set

    def add(self, job: JobSpec, target: bool = True) -> str:
        """Add ``job`` and (recursively) its dependencies; returns its key.

        ``target=True`` (the default for directly-added jobs) marks the
        job's result as one the caller wants returned by the executor.
        """
        key = job.key()
        if key not in self._jobs:
            self._jobs[key] = job
            # reserve the slot before recursing so self-referential specs
            # cannot recurse forever; cycles are rejected during ordering
            self._dependencies[key] = ()
            self._dependencies[key] = tuple(
                self.add(dependency, target=False)
                for dependency in job.dependencies())
        if target:
            self._targets[key] = None
        return key

    def job(self, key: str) -> JobSpec:
        return self._jobs[key]

    def dependencies(self, key: str) -> tuple[str, ...]:
        return self._dependencies[key]

    @property
    def targets(self) -> tuple[str, ...]:
        """Keys of directly-requested jobs, in insertion order."""
        return tuple(self._targets)

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def keys(self) -> tuple[str, ...]:
        return tuple(self._jobs)

    def counts_by_kind(self) -> dict[str, int]:
        """Number of jobs per kind (for run manifests)."""
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.kind] = counts.get(job.kind, 0) + 1
        return counts

    def topological_order(self) -> list[str]:
        """Every job key, dependencies before dependents, deterministically.

        Raises ``ValueError`` when the graph contains a cycle.
        """
        remaining = {key: len(deps)
                     for key, deps in self._dependencies.items()}
        dependents: dict[str, list[str]] = {key: [] for key in self._jobs}
        for key, deps in self._dependencies.items():
            for dep in deps:
                dependents[dep].append(key)
        ready = [key for key in self._jobs if remaining[key] == 0]
        order: list[str] = []
        cursor = 0
        while cursor < len(ready):
            key = ready[cursor]
            cursor += 1
            order.append(key)
            for consumer in dependents[key]:
                remaining[consumer] -= 1
                if remaining[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._jobs):
            unresolved = sorted(set(self._jobs) - set(order))
            raise ValueError(f"task graph contains a cycle among {unresolved}")
        return order
