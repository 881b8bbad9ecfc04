"""Process-pool execution backend (``concurrent.futures``).

Runs jobs in local worker processes when one machine's cores are
enough and no queue durability is wanted.  The backend owns the pool
mechanics: submission with parent-side wall-clock timestamps (for
queue-wait estimates), worker-side ``job`` spans and metric flushes
through a picklable obs snapshot, and ``BrokenProcessPool`` recovery —
when the pool dies, every in-flight job is reported to the scheduler as
an ``"error"`` event against a freshly restarted pool, so the
scheduler's ordinary retry budget decides what gets resubmitted.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import repro.obs as obs
from repro.obs import trace as obs_trace
from repro.runtime.backends import CompletionEvent, ExecutionBackend, timed_run
from repro.runtime.jobs import JobSpec, RuntimeContext
from repro.runtime.manifest import attempt_outcome

#: per-worker-process context, created lazily on the first job
_WORKER_CONTEXT: RuntimeContext | None = None


def _pool_run(job: JobSpec, deps: dict[str, Any],
              timeout: float | None = None, attempt: int = 1,
              submit_ts: float | None = None,
              obs_state: dict | None = None
              ) -> tuple[Any, float, float | None]:
    """Worker-side job execution: one ``job`` span per attempt.

    ``submit_ts`` (parent ``time.time()`` at submission) yields the
    queue-wait estimate — wall clocks are comparable across processes on
    one machine, unlike ``perf_counter``.  The span is written into the
    shared trace sink even when the job raises (the context manager emits
    on the error path before re-raising), and the worker's metric deltas
    are flushed after every attempt so a later pool crash cannot lose
    them.
    """
    global _WORKER_CONTEXT
    obs.ensure(obs_state)
    if _WORKER_CONTEXT is None:
        _WORKER_CONTEXT = RuntimeContext()
    queue_wait = (max(0.0, time.time() - submit_ts)
                  if submit_ts is not None else None)
    span = obs_trace.span("job", kind=job.kind, attempt=attempt,
                          queue_wait_s=queue_wait)
    if span.enabled:
        span.tag(key=job.key())
    try:
        with span:
            value, seconds = timed_run(job, _WORKER_CONTEXT, deps, timeout)
    finally:
        obs.flush_metrics()
    return value, seconds, queue_wait


class PoolBackend(ExecutionBackend):
    """Runs job attempts on a ``ProcessPoolExecutor``."""

    name = "pool"

    def __init__(self, max_workers: int = 2) -> None:
        self.concurrency = max(1, max_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict[Any, str] = {}
        self._obs_state: dict | None = None

    def start(self, graph: Any) -> None:
        self._pool = ProcessPoolExecutor(max_workers=self.concurrency)
        self._futures = {}
        self._obs_state = obs.state()

    def submit(self, key: str, job: JobSpec, deps: dict[str, Any],
               attempt: int) -> None:
        assert self._pool is not None, "submit before start"
        future = self._pool.submit(_pool_run, job, deps,
                                   self.scheduler.job_timeout, attempt,
                                   time.time(), self._obs_state)
        self._futures[future] = key

    def wait(self) -> list[CompletionEvent]:
        events: list[CompletionEvent] = []
        done, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        for future in done:
            key = self._futures.pop(future, None)
            if key is None:
                continue
            try:
                value, seconds, queue_wait = future.result()
            except BrokenProcessPool as error:
                # the pool is dead and every in-flight future died with
                # it: restart the pool and report each in-flight job as an
                # error event — the scheduler's retry budget decides which
                # to resubmit (onto the fresh pool)
                in_flight = [key] + list(self._futures.values())
                self._futures.clear()
                self._pool.shutdown(wait=True)
                self._pool = ProcessPoolExecutor(max_workers=self.concurrency)
                events.extend(CompletionEvent(flown, "error", error=error)
                              for flown in in_flight)
                return events
            except Exception as error:
                events.append(CompletionEvent(key, attempt_outcome(error),
                                              error=error))
            else:
                events.append(CompletionEvent(key, "ok", value=value,
                                              execute_s=seconds,
                                              queue_wait_s=queue_wait))
        return events

    def finish(self) -> None:
        for future in self._futures:
            future.cancel()
        self._futures = {}
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
