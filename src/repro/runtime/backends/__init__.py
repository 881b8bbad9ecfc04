"""Pluggable execution backends for the task-graph scheduler.

The :class:`~repro.runtime.scheduler.Scheduler` owns planning, cache
probing, dependency tracking, retry/timeout policy, keep-going subtree
isolation, and manifest accounting; a backend owns only *where job
attempts physically run*:

- :class:`~repro.runtime.backends.serial.SerialBackend` — inline, in
  this process on the scheduler's thread, one attempt at a time;
- :class:`~repro.runtime.backends.pool.PoolBackend` — a
  ``concurrent.futures`` process pool with ``BrokenProcessPool``
  restart-and-resubmit;
- :class:`~repro.runtime.backends.queue.QueueBackend` — independent
  worker processes pulling content-hash-keyed jobs from a durable
  SQLite-WAL :class:`~repro.runtime.queue.JobQueue` with lease-based
  claims, heartbeats, and dead-worker reclaim; results are coordinated
  through the shared content-addressed ``DiskCache``.

The contract is event-based and the same for all three: the scheduler's
one wavefront loop calls :meth:`submit` for each ready job and
:meth:`wait` for the next batch of :class:`CompletionEvent`\\ s; the
backend never interprets outcomes — it reports them, and the scheduler
applies retry budgets, failure bookkeeping, and subtree skips uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.runtime.deadline import call_with_deadline
from repro.runtime.faults import inject
from repro.runtime.jobs import JobSpec, RuntimeContext

if TYPE_CHECKING:
    from repro.runtime.scheduler import Scheduler

#: registered backend names, in documentation order
BACKEND_NAMES: tuple[str, ...] = ("serial", "pool", "queue")


def timed_run(job: JobSpec, ctx: RuntimeContext, deps: dict[str, Any],
              timeout: float | None = None) -> tuple[Any, float]:
    """Execute one job attempt with fault injection and a deadline.

    The one code path every backend funnels through: fault hooks fire
    first (a killed process never starts the timer), then the job body
    runs under :func:`~repro.runtime.deadline.call_with_deadline` so
    hung jobs raise ``JobTimeoutError`` in-process on every backend.
    """
    inject(job)
    start = time.perf_counter()
    value = call_with_deadline(lambda: job.run(ctx, deps), timeout)
    return value, time.perf_counter() - start


@dataclass
class CompletionEvent:
    """One finished job attempt reported by a backend to the scheduler."""

    key: str
    #: "ok", "error", "timeout", or "lost" (the executing worker died and
    #: the job's lease was reclaimed — retried without consuming the
    #: job_retries budget)
    outcome: str
    value: Any = None
    #: True when the result was written to the shared cache by a worker
    #: and must be loaded from there (queue backend) instead of ``value``
    value_in_cache: bool = False
    execute_s: float | None = None
    queue_wait_s: float | None = None
    #: the exception for failed attempts (its ``repr`` feeds the manifest)
    error: BaseException | None = None


class ExecutionBackend:
    """Base class / protocol for execution backends.

    Lifecycle per run: ``bind(scheduler)`` once at construction wiring,
    then ``start(graph)`` → N×``submit`` interleaved with ``wait`` →
    ``finish()`` (always called, also on fail-fast abort).
    """

    #: backend name as surfaced in manifests and ``--backend``
    name: str = "?"
    #: maximum concurrently-executing jobs
    concurrency: int = 1

    def bind(self, scheduler: "Scheduler") -> None:
        """Attach the owning scheduler (context, cache, timeout policy)."""
        self.scheduler = scheduler

    def start(self, graph: Any) -> None:
        """Acquire run resources (pool processes, queue workers)."""

    def submit(self, key: str, job: JobSpec, deps: dict[str, Any],
               attempt: int) -> None:
        raise NotImplementedError(f"{self.name} backend cannot submit")

    def wait(self) -> list[CompletionEvent]:
        """Block until at least one submitted job finishes."""
        raise NotImplementedError(f"{self.name} backend cannot wait")

    def finish(self) -> None:
        """Cancel outstanding work and release run resources."""


def make_backend(spec: "str | ExecutionBackend | None", *,
                 max_workers: int = 1, **options: Any) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` / ``"auto"`` picks the historical behaviour: serial for
    ``max_workers <= 1``, the process pool otherwise.  Unknown names
    raise ``ValueError`` listing the registry.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name = spec or "auto"
    if name == "auto":
        name = "pool" if max_workers > 1 else "serial"
    if name == "serial":
        from repro.runtime.backends.serial import SerialBackend

        return SerialBackend()
    if name == "pool":
        from repro.runtime.backends.pool import PoolBackend

        return PoolBackend(max_workers=max(1, max_workers))
    if name == "queue":
        from repro.runtime.backends.queue import QueueBackend

        return QueueBackend(max_workers=max(1, max_workers), **options)
    raise ValueError(f"unknown execution backend {spec!r} "
                     f"(expected one of {BACKEND_NAMES} or 'auto')")
