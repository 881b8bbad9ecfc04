"""Backend-agnostic scheduling of task graphs over a shared cache.

The scheduler materializes the *target* results of a
:class:`~repro.runtime.graph.TaskGraph`:

1. job keys are probed against the cache lazily while planning (a cheap
   existence check — the cache is content-addressed by job key, so one
   entry serves every layer that asks for the same work); probing and
   manifest accounting are restricted to the subtree a run actually
   plans, not the whole graph;
2. cache misses that a target transitively needs are executed —
   dependencies before dependents — on an
   :class:`~repro.runtime.backends.ExecutionBackend` (in-process serial,
   process pool, or durable job queue);
3. each executed result is written back to the cache, and each job key is
   executed at most once per run (single-flight: two grid cells sharing a
   trained model never fit it twice).

The scheduler owns every piece of *policy* — planning, probe accounting,
dependency tracking, retry budgets, keep-going subtree skips, and the
:class:`~repro.runtime.manifest.RunManifest` — while backends own only
the mechanics of running one job attempt somewhere.  That split keeps
failure semantics identical across backends: an attempt that raises is
retried ``job_retries`` times; an attempt whose *worker died* (queue
backend lease expiry, reported as a ``"lost"`` event) is requeued up to
:data:`MAX_LOST_REQUEUES` times without consuming the retry budget,
because a dead worker is the infrastructure's fault, not the job's.

A backend with ``concurrency <= 1`` — or a run that only needs one job —
executes through the recursive serial path, byte-identical with
historical serial runs.  Concurrent backends are driven by a
wavefront loop over :class:`~repro.runtime.backends.CompletionEvent`\\ s.

Every run produces a :class:`~repro.runtime.manifest.RunManifest`
available as ``last_manifest`` — even when the run raised.
"""

from __future__ import annotations

import time
from typing import Any

import repro.obs as obs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.backends import ExecutionBackend
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import JobSpec, RuntimeContext
from repro.runtime.manifest import (FailureRecord, RunManifest, JobError,
                                    WorkerLostError, attempt_outcome)

#: sentinel distinguishing "no cached value" from a cached ``None``
_MISSING = object()

#: sentinel returned by the serial path for failed or skipped jobs
_FAILED = object()

#: requeues granted per job after worker-loss ("lost") events, separate
#: from the ``job_retries`` budget: the default retries=0 must still
#: survive a worker dying mid-job, but a job that kills every worker that
#: touches it has to stop spreading eventually
MAX_LOST_REQUEUES = 3


class Scheduler:
    """Runs task graphs on an execution backend, through one cache.

    Policy lives here; the backend only executes attempts.  ``cache`` is
    anything satisfying :class:`repro.core.cache.Cache` (``None`` uses a
    private in-memory store); the queue backend additionally requires a
    ``DiskCache`` so workers in other processes can see results.
    """

    def __init__(self, cache: Any = None,
                 backend: ExecutionBackend | None = None,
                 job_timeout: float | None = None, job_retries: int = 0,
                 keep_going: bool = False,
                 retry_backoff: float = 0.1) -> None:
        # imported late: ``repro.core`` imports the scenario layer, which
        # imports this module back through ``repro.runtime``
        from repro.core.cache import MemoryCache

        if backend is None:
            from repro.runtime.backends.serial import SerialBackend

            backend = SerialBackend()
        self.cache = cache if cache is not None else MemoryCache()
        self.backend = backend
        self.backend.bind(self)
        self.job_timeout = job_timeout
        self.job_retries = max(0, job_retries)
        self.keep_going = keep_going
        self.retry_backoff = retry_backoff
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
        order = graph.topological_order()  # also rejects cyclic graphs
        target_keys = graph.targets if targets is None else tuple(targets)
        workers = max(1, self.backend.concurrency)
        manifest = RunManifest(workers=workers, backend=self.backend.name)
        self.last_manifest = manifest

        values: dict[str, Any] = {}
        cached: dict[str, bool] = {}
        poisoned: set[str] = set()
        try:
            with obs_trace.span("executor.run", targets=len(target_keys),
                                workers=workers, backend=self.backend.name):
                needed = self._plan(graph, target_keys, cached, manifest)
                if workers <= 1 or len(needed) <= 1:
                    for key in target_keys:
                        self._materialize(graph, key, values, cached,
                                          manifest, poisoned)
                else:
                    self._run_concurrent(graph, order, target_keys, needed,
                                         values, cached, manifest, poisoned)
        finally:
            manifest.wall_seconds = time.perf_counter() - start
            obs.flush_metrics()
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

    # -- serial path -----------------------------------------------------------

    def _materialize(self, graph: TaskGraph, key: str, values: dict[str, Any],
                     cached: dict[str, bool], manifest: RunManifest,
                     poisoned: set[str]) -> Any:
        """Load ``key`` from cache or execute it (recursing into deps).

        Returns the ``_FAILED`` sentinel for failed or skipped jobs in
        keep-going mode (fail-fast raises before the sentinel can spread).
        """
        if key in values:
            return values[key]
        if key in poisoned:
            return _FAILED
        if self._probe(graph, key, cached, manifest):
            value = self.cache.get(key, _MISSING)
            if value is not _MISSING:
                values[key] = value
                return value
            # corrupt disk entry discovered at load time: fall through and
            # recompute (the probe counted it as a hit; undo that)
            cached[key] = False
            manifest.cached -= 1
        job = graph.job(key)
        deps: dict[str, Any] = {}
        upstream_failed = False
        for dep in graph.dependencies(key):
            # materialize every dependency even after one fails so healthy
            # siblings stay warm in the cache and the executed set matches
            # the concurrent path's
            result = self._materialize(graph, dep, values, cached, manifest,
                                       poisoned)
            if result is _FAILED:
                upstream_failed = True
            else:
                deps[dep] = result
        if upstream_failed:
            poisoned.add(key)
            manifest.skipped.append(key)
            return _FAILED
        value = self._execute_sync(job, key, deps, manifest, poisoned)
        if value is _FAILED:
            return _FAILED
        self.cache.put(key, value)
        values[key] = value
        return value

    def _execute_sync(self, job: JobSpec, key: str, deps: dict[str, Any],
                      manifest: RunManifest, poisoned: set[str]) -> Any:
        attempts = 0
        while True:
            attempts += 1
            span = obs_trace.span("job", kind=job.kind, key=key,
                                  attempt=attempts, queue_wait_s=0.0)
            try:
                with span:
                    value, seconds = self.backend.run_sync(job, deps)
            except Exception as error:
                outcome = attempt_outcome(error)
                manifest.record_attempt(job.kind, key, attempts, outcome,
                                        0.0, None, repr(error))
                obs_metrics.inc(f"runtime.attempts.{outcome}")
                if attempts <= self.job_retries:
                    obs_metrics.inc("runtime.retries")
                    if self.retry_backoff:
                        time.sleep(self.retry_backoff * attempts)
                    continue
                obs_metrics.inc("runtime.failures")
                self._fail(job, key, error, attempts, manifest, poisoned)
                return _FAILED
            manifest.record_attempt(job.kind, key, attempts, "ok", 0.0,
                                    seconds)
            obs_metrics.inc("runtime.attempts.ok")
            manifest.record_execution(job.kind, seconds)
            return value

    # -- concurrent path -------------------------------------------------------

    def _run_concurrent(self, graph: TaskGraph, order: list[str],
                        target_keys: tuple[str, ...], needed: list[str],
                        values: dict[str, Any], cached: dict[str, bool],
                        manifest: RunManifest, poisoned: set[str]) -> None:
        """Wavefront loop driving a concurrent backend with ready jobs."""
        # Materialize every cached value the needed jobs (or targets) will
        # read, in the parent.  A corrupt entry falls back to the serial
        # recursive path, which may shrink the needed set — and, in
        # keep-going mode, may poison consumers like any other failure.
        needed_set = set(needed)
        for key in order:
            wanted = (key in target_keys and key not in needed_set) or any(
                consumer in needed_set
                for consumer in graph.dependents(key))
            if wanted and key not in needed_set and key not in values:
                self._materialize(graph, key, values, cached, manifest,
                                  poisoned)
        needed = [key for key in needed
                  if key not in values and key not in poisoned]
        needed_set = set(needed)

        pending = {key: sum(1 for dep in graph.dependencies(key)
                            if dep in needed_set and dep not in values)
                   for key in needed}
        consumers: dict[str, list[str]] = {key: [] for key in needed}
        for key in needed:
            for dep in graph.dependencies(key):
                if dep in needed_set:
                    consumers[dep].append(key)
        # jobs whose upstream already failed during pre-materialization
        for key in needed:
            if key not in poisoned and any(
                    dep in poisoned for dep in graph.dependencies(key)):
                self._skip_subtree([key], consumers, poisoned, manifest)
        ready = [key for key in needed
                 if pending[key] == 0 and key not in poisoned]

        attempts = {key: 0 for key in needed}
        requeues = {key: 0 for key in needed}
        outstanding = 0
        backend = self.backend
        backend.start(graph)

        def submit(key: str) -> None:
            nonlocal outstanding
            deps = {dep: values[dep] for dep in graph.dependencies(key)}
            attempts[key] += 1
            backend.submit(key, graph.job(key), deps, attempts[key])
            outstanding += 1

        try:
            for key in ready:
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
                        for consumer in consumers.get(key, ()):
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
                        obs_metrics.inc("runtime.failures")
                        self._fail(job, key, error, attempts[key], manifest,
                                   poisoned)
                        self._skip_subtree(consumers.get(key, []), consumers,
                                           poisoned, manifest)
                        continue
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
                    self._skip_subtree(consumers.get(key, []), consumers,
                                       poisoned, manifest)
        finally:
            # fail-fast exit (or any error): cancel what never started and
            # release the backend's run resources so nothing outlives the run
            backend.finish()
