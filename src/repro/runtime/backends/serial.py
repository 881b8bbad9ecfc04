"""In-process serial execution backend.

The inline backend of the scheduler's one wavefront loop: ``submit``
queues an attempt and ``wait`` runs the oldest queued attempt on the
caller's thread, so attempts run one at a time in submission order.
Running on the scheduler's thread keeps ``SIGALRM`` deadline enforcement
available whenever the caller is the main thread.  Each attempt opens the
``job`` span itself and reports ``queue_wait_s=0.0``: an inline attempt
never waits for a worker.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs import trace as obs_trace
from repro.runtime.backends import CompletionEvent, ExecutionBackend, timed_run
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import attempt_outcome


class SerialBackend(ExecutionBackend):
    """Runs every job attempt in the calling process, one at a time."""

    name = "serial"
    concurrency = 1

    def __init__(self) -> None:
        self._queued: deque[tuple[str, JobSpec, dict[str, Any], int]] = deque()

    def submit(self, key: str, job: JobSpec, deps: dict[str, Any],
               attempt: int) -> None:
        self._queued.append((key, job, deps, attempt))

    def wait(self) -> list[CompletionEvent]:
        key, job, deps, attempt = self._queued.popleft()
        span = obs_trace.span("job", kind=job.kind, key=key, attempt=attempt,
                              queue_wait_s=0.0)
        try:
            with span:
                value, seconds = timed_run(job, self.scheduler.context, deps,
                                           self.scheduler.job_timeout)
        except Exception as error:
            return [CompletionEvent(key, attempt_outcome(error), error=error,
                                    queue_wait_s=0.0)]
        return [CompletionEvent(key, "ok", value=value, execute_s=seconds,
                                queue_wait_s=0.0)]

    def finish(self) -> None:
        self._queued.clear()
