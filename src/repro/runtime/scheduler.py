"""Backend-agnostic scheduling of task graphs over a shared cache.

The scheduler materializes the *target* results of a
:class:`~repro.runtime.graph.TaskGraph`:

1. job keys are probed against the cache lazily while planning (a cheap
   existence check — the cache is content-addressed by job key, so one
   entry serves every layer that asks for the same work); probing and
   manifest accounting are restricted to the subtree a run actually
   plans, not the whole graph;
2. every cached value a target or a needed job reads is loaded; a corrupt
   entry found there is revoked and re-planned as a miss;
3. cache misses that a target transitively needs are executed —
   dependencies before dependents — on an
   :class:`~repro.runtime.backends.ExecutionBackend` (in-process serial,
   process pool, or durable job queue);
4. each executed result is written back to the cache, and each job key is
   executed at most once per run (single-flight: two grid cells sharing a
   trained model never fit it twice).

The scheduler owns every piece of *policy* — planning, probe accounting,
dependency tracking, retry budgets, keep-going subtree skips, and the
:class:`~repro.runtime.manifest.RunManifest` — while backends own only
the mechanics of running one job attempt somewhere.  One wavefront loop
over :class:`~repro.runtime.backends.CompletionEvent`\\ s drives every
backend, so failure semantics are identical across them: an attempt
that raises is resubmitted at once, up to ``job_retries`` times; an
attempt whose *worker died* (queue backend lease expiry, reported as a
``"lost"`` event) is requeued up to :data:`MAX_LOST_REQUEUES` times
without consuming the retry budget, because a dead worker is the
infrastructure's fault, not the job's.

A run that needs at most one job executes on the scheduler's own inline
:class:`~repro.runtime.backends.serial.SerialBackend`, whatever the
configured backend; a fully cached run starts no backend at all.

Every run produces a :class:`~repro.runtime.manifest.RunManifest`
available as ``last_manifest`` — even when the run raised.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.cache import DiskCache
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.backends import ExecutionBackend
from repro.runtime.backends.serial import SerialBackend
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec, RuntimeContext
from repro.runtime.manifest import (FailureRecord, RunManifest, JobError,
                                    WorkerLostError, attempt_outcome)

#: sentinel distinguishing "no cached value" from a cached ``None``
_MISSING = object()

#: requeues granted per job after worker-loss ("lost") events, separate
#: from the ``job_retries`` budget: the default retries=0 must still
#: survive a worker dying mid-job, but a job that kills every worker that
#: touches it has to stop spreading eventually
MAX_LOST_REQUEUES = 3


class Scheduler:
    """Runs task graphs on an execution backend, through one cache.

    Policy lives here; the backend only executes attempts.  ``cache`` is
    the :class:`~repro.core.cache.DiskCache` every job reads and writes
    through (``None`` uses a private in-memory ``DiskCache(None)``); the
    queue backend requires one with a directory so workers in other
    processes can see results.
    """

    def __init__(self, cache: DiskCache | None = None,
                 backend: ExecutionBackend | None = None,
                 job_timeout: float | None = None, job_retries: int = 0,
                 keep_going: bool = False) -> None:
        self.cache = cache if cache is not None else DiskCache(None)
        # runs attempts on this thread: every run that needs at most one
        # job, and every run when no other backend is given
        self._inline = SerialBackend()
        self._inline.bind(self)
        self.backend = backend if backend is not None else self._inline
        self.backend.bind(self)
        self.job_timeout = job_timeout
        self.job_retries = max(0, job_retries)
        self.keep_going = keep_going
        self.last_manifest: RunManifest | None = None
        self.context = RuntimeContext()

    # -- public API ------------------------------------------------------------

    def run(self, graph: TaskGraph,
            targets: tuple[str, ...] | None = None) -> dict[str, Any]:
        """Materialize ``targets`` (default: the graph's targets).

        Returns a mapping of job key to result for every target plus any
        dependency that had to be loaded or computed along the way.  In
        keep-going mode, failed jobs and their skipped dependents are
        absent from the mapping and described by ``last_manifest``; in
        fail-fast mode (the default) the first exhausted failure raises
        :class:`~repro.runtime.manifest.JobError`.
        """
        start = time.perf_counter()
        graph.topological_order()  # rejects cyclic graphs
        target_keys = graph.targets if targets is None else tuple(targets)
        workers = max(1, self.backend.concurrency)
        manifest = RunManifest(workers=workers, backend=self.backend.name)
        self.last_manifest = manifest

        values: dict[str, Any] = {}
        try:
            with obs_trace.span("executor.run", targets=len(target_keys),
                                workers=workers, backend=self.backend.name):
                needed = self._load(graph, target_keys, values, manifest)
                if needed:
                    backend = self.backend if len(needed) > 1 else self._inline
                    self._execute(graph, backend, needed, values, manifest)
        finally:
            manifest.wall_seconds = time.perf_counter() - start
        return values

    # -- planning --------------------------------------------------------------

    def _probe(self, graph: TaskGraph, key: str, cached: dict[str, bool],
               manifest: RunManifest) -> bool:
        """Memoized cache probe; the first probe of a key is accounted."""
        if key not in cached:
            hit = bool(self.cache.contains(key))
            cached[key] = hit
            manifest.record_probe(graph.job(key).kind, hit)
            obs_metrics.inc("runtime.probe.hit" if hit
                            else "runtime.probe.miss")
        return cached[key]

    def _plan(self, graph: TaskGraph, target_keys: tuple[str, ...],
              cached: dict[str, bool], manifest: RunManifest) -> list[str]:
        """Cache misses that must execute to materialize every target.

        A cached job stops the traversal: its dependencies are only needed
        if some *other* uncached job consumes them (pruning).  Only visited
        jobs are probed and counted in the manifest.  The result preserves
        the graph's insertion order.
        """
        needed: set[str] = set()
        stack = list(target_keys)
        while stack:
            key = stack.pop()
            if key in needed or self._probe(graph, key, cached, manifest):
                continue
            needed.add(key)
            stack.extend(graph.dependencies(key))
        return [key for key in graph.keys() if key in needed]

    def _load(self, graph: TaskGraph, target_keys: tuple[str, ...],
              values: dict[str, Any], manifest: RunManifest) -> list[str]:
        """Plan the run and load every cached value it reads into
        ``values``; returns the jobs that must execute.

        A cached target is read by the caller, a cached dependency by the
        needed job that consumes it.  A corrupt entry found here is
        revoked (its probe counted a hit) and re-planned as a miss, so it
        executes on the run's backend like any other; its own cached
        dependencies are then loaded on the next pass.
        """
        cached: dict[str, bool] = {}
        while True:
            needed = self._plan(graph, target_keys, cached, manifest)
            needed_set = set(needed)
            reads = [key for key in target_keys if key not in needed_set]
            reads += [dep for key in needed for dep in graph.dependencies(key)
                      if dep not in needed_set]
            revoked = False
            for key in reads:
                if key in values or not cached[key]:
                    continue
                value = self.cache.get(key, _MISSING)
                if value is _MISSING:
                    cached[key] = False
                    manifest.cached -= 1
                    revoked = True
                else:
                    values[key] = value
            if not revoked:
                return needed

    # -- failure bookkeeping ---------------------------------------------------

    def _fail(self, job: JobSpec, key: str, error: BaseException,
              attempts: int, manifest: RunManifest,
              poisoned: set[str]) -> None:
        """Record an exhausted failure; raise :class:`JobError` unless
        running in keep-going mode."""
        failure = FailureRecord(kind=job.kind, key=key,
                                description=job.describe(),
                                error=repr(error), attempts=attempts)
        manifest.failures.append(failure)
        poisoned.add(key)
        if not self.keep_going:
            raise JobError(failure) from error

    @staticmethod
    def _skip_subtree(keys: list[str], consumers: dict[str, list[str]],
                      poisoned: set[str], manifest: RunManifest) -> None:
        """Mark ``keys`` and their transitive consumers as skipped."""
        stack = list(keys)
        while stack:
            key = stack.pop()
            if key in poisoned:
                continue
            poisoned.add(key)
            manifest.skipped.append(key)
            stack.extend(consumers.get(key, ()))

    # -- execution -------------------------------------------------------------

    def _execute(self, graph: TaskGraph, backend: ExecutionBackend,
                 needed: list[str], values: dict[str, Any],
                 manifest: RunManifest) -> None:
        """Wavefront loop: submit each needed job once its needed
        dependencies are done, and apply each completion's outcome."""
        needed_set = set(needed)
        pending: dict[str, int] = {}
        consumers: dict[str, list[str]] = {key: [] for key in needed}
        for key in needed:
            upstream = [dep for dep in graph.dependencies(key)
                        if dep in needed_set]
            pending[key] = len(upstream)
            for dep in upstream:
                consumers[dep].append(key)

        poisoned: set[str] = set()
        attempts = dict.fromkeys(needed, 0)
        requeues = dict.fromkeys(needed, 0)
        outstanding = 0
        backend.start(graph)

        def submit(key: str) -> None:
            nonlocal outstanding
            deps = {dep: values[dep] for dep in graph.dependencies(key)}
            attempts[key] += 1
            backend.submit(key, graph.job(key), deps, attempts[key])
            outstanding += 1

        try:
            for key in needed:
                if pending[key] == 0:
                    submit(key)
            while outstanding:
                for event in backend.wait():
                    outstanding -= 1
                    key = event.key
                    job = graph.job(key)
                    outcome, error = event.outcome, event.error
                    value = event.value
                    if outcome == "ok" and event.value_in_cache:
                        # queue workers publish results through the shared
                        # cache instead of shipping values over the queue
                        value = self.cache.get(key, _MISSING)
                        if value is _MISSING:
                            outcome = "error"
                            error = RuntimeError(
                                f"result of {key} reported done but absent "
                                f"from the shared cache")
                    if outcome == "ok":
                        manifest.record_attempt(job.kind, key, attempts[key],
                                                "ok", event.queue_wait_s,
                                                event.execute_s)
                        obs_metrics.inc("runtime.attempts.ok")
                        manifest.record_execution(job.kind,
                                                  event.execute_s or 0.0)
                        if not event.value_in_cache:
                            self.cache.put(key, value)
                        values[key] = value
                        for consumer in consumers[key]:
                            pending[consumer] -= 1
                            if (pending[consumer] == 0
                                    and consumer not in poisoned):
                                submit(consumer)
                        continue
                    if outcome == "lost":
                        # the executing worker died (lease expired / pool
                        # broke before the attempt could report): requeue
                        # without charging the job's retry budget
                        manifest.record_attempt(job.kind, key, attempts[key],
                                                "lost", None, None,
                                                repr(error))
                        obs_metrics.inc("runtime.attempts.lost")
                        if requeues[key] < MAX_LOST_REQUEUES:
                            requeues[key] += 1
                            obs_metrics.inc("runtime.requeues")
                            submit(key)
                            continue
                        error = error or WorkerLostError(
                            f"workers kept dying while running {key}")
                    else:
                        error = error or RuntimeError(f"job {key} failed")
                        if outcome not in ("error", "timeout"):
                            outcome = attempt_outcome(error)
                        manifest.record_attempt(job.kind, key, attempts[key],
                                                outcome, event.queue_wait_s,
                                                None, repr(error))
                        obs_metrics.inc(f"runtime.attempts.{outcome}")
                        if attempts[key] <= self.job_retries:
                            obs_metrics.inc("runtime.retries")
                            submit(key)
                            continue
                    obs_metrics.inc("runtime.failures")
                    self._fail(job, key, error, attempts[key], manifest,
                               poisoned)
                    self._skip_subtree(consumers[key], consumers, poisoned,
                                       manifest)
        finally:
            # fail-fast exit (or any error): cancel what never started and
            # release the backend's run resources so nothing outlives the run
            backend.finish()
