"""Server-side micro-batching: coalesce concurrent requests into one run.

The model-serving batching pattern (Clipper-style): handler threads
enqueue their request and block; a single dispatcher thread dispatches
on idle — it blocks for the first request, takes whatever else is
already queued (capping at ``max_batch``) without waiting for more, and
hands the whole batch to one ``execute`` callable.  A lone request never
waits for company; requests that arrive while a batch executes queue up
and form the next batch, so occupancy rises with load instead of being
bought with latency.  For this system that
callable is :meth:`~repro.api.service.ApiService.compress_batch` /
``forecast_batch``, which runs the batch as ONE task graph: requests
sharing a (dataset, method, model) signature collapse to a single
content-addressed job, so 64 concurrent identical requests cost one
execution plus 63 cache-free result fans.

Backpressure: ``max_queue`` bounds how many requests may wait for a
batch.  A submission over that depth is *shed* — it returns an
``overloaded`` :class:`~repro.api.errors.ErrorEnvelope` immediately
(mapped to HTTP 429 + ``Retry-After`` by the server) instead of joining
a queue it would only time out of.  Shedding never starts work, so a
retry after backoff is always safe.  Likewise a submission after
:meth:`MicroBatcher.close` is refused immediately rather than enqueued
into a dead dispatcher.

A waiter whose ``timeout`` expires marks its entry *cancelled*; the
dispatcher drops cancelled entries before executing, so an abandoned
request never occupies a batch slot or burns a task-graph run.  The
expiry returns a distinct ``timeout`` envelope (HTTP 504), not a generic
internal error.

Observability per batch and per request:

- ``server.batch.occupancy`` — histogram of *live* batch sizes (the
  smoke test's "batching actually happened" witness: max > 1 under
  concurrency);
- ``server.queue_wait_s`` — histogram of enqueue → execution-start time
  per request (queue wait vs execute split);
- ``server.queue.depth.<family>`` — gauge of the current queue depth;
- ``server.shed`` / ``server.shed.<family>`` — counters of refused
  submissions (queue full or batcher closed);
- ``server.batch.cancelled`` — counter of entries dropped because their
  waiter timed out before dispatch;
- ``server.batch`` span — one per dispatched batch, tagged with the
  occupancy and the batch family.

Failure semantics mirror the runtime's ``keep_going`` degradation: the
``execute`` callable returns, positionally, a response *or* an
:class:`~repro.api.errors.ErrorEnvelope` per request; if it raises
instead (fail-fast :class:`~repro.runtime.manifest.JobError`, a bug), the
whole batch degrades to envelopes rather than hanging any waiter.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.api.errors import (INTERNAL, ErrorEnvelope,
                              envelope_from_job_error, overloaded_envelope,
                              timeout_envelope)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import WALL
from repro.runtime.manifest import JobError

#: queue sentinel that shuts the dispatcher down
_STOP = object()


@dataclass
class _Pending:
    """One enqueued request and the event its handler thread waits on."""

    request: Any
    enqueued_at: float
    done: threading.Event = field(default_factory=threading.Event)
    result: Any = None
    #: set when the submitting thread gave up waiting; the dispatcher
    #: drops cancelled entries instead of executing them
    cancelled: bool = False

    def resolve(self, result: Any) -> None:
        self.result = result
        self.done.set()


class MicroBatcher:
    """Coalesces concurrent submissions into single batched executions."""

    def __init__(self, name: str,
                 execute: Callable[[list[Any]], Sequence[Any]],
                 max_batch: int = 64, max_queue: int | None = None) -> None:
        self.name = name
        self._execute = execute
        self.max_batch = max(1, max_batch)
        #: queued-submission cap; None = unbounded (no shedding)
        self.max_queue = max_queue if max_queue is None else max(1, max_queue)
        self._queue: queue.Queue = queue.Queue()
        self._worker = threading.Thread(target=self._loop,
                                        name=f"batcher-{name}", daemon=True)
        self._started = False
        self._stopped = False
        self._lock = threading.Lock()

    # -- public API ------------------------------------------------------------

    def submit(self, request: Any, timeout: float | None = None) -> Any:
        """Enqueue one request and block until its batch resolves it.

        Returns whatever the batch execution produced for this request —
        a typed response or an :class:`ErrorEnvelope`.  Submissions are
        refused immediately (never enqueued) with an ``overloaded``
        envelope when the batcher is closed or its queue is full.
        ``timeout`` bounds the wait; expiry cancels the entry (it will
        not be dispatched) and returns a ``timeout`` envelope rather
        than raising, so a wedged run surfaces as a structured error.
        """
        with self._lock:
            if self._stopped:
                return self._shed(f"the {self.name} batcher is shut down")
            if (self.max_queue is not None
                    and self._queue.qsize() >= self.max_queue):
                return self._shed(
                    f"the {self.name} batch queue is full "
                    f"({self.max_queue} waiting); retry after backoff")
            if not self._started:
                self._worker.start()
                self._started = True
            pending = _Pending(request, WALL())
            self._queue.put(pending)
        obs_metrics.set_gauge(f"server.queue.depth.{self.name}",
                              self._queue.qsize())
        if not pending.done.wait(timeout):
            # best-effort: the dispatcher may race this flag, in which
            # case the request simply completes and nobody reads it
            pending.cancelled = True
            return timeout_envelope(
                self.name,
                f"request timed out after {timeout}s in the "
                f"{self.name} batch queue")
        return pending.result

    def close(self) -> None:
        """Stop the dispatcher (idempotent); queued requests still drain.

        Submissions arriving after close are refused immediately with an
        ``overloaded`` envelope instead of enqueueing into the dead
        dispatcher and blocking out their full timeout.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            if not self._started:
                return
        self._queue.put(_STOP)
        self._worker.join(timeout=30.0)

    # -- dispatcher ------------------------------------------------------------

    def _shed(self, message: str) -> ErrorEnvelope:
        obs_metrics.inc("server.shed")
        obs_metrics.inc(f"server.shed.{self.name}")
        return overloaded_envelope(self.name, message)

    def _collect(self) -> list[_Pending] | None:
        """Block for the first request, then take what is already queued."""
        first = self._queue.get()
        if first is _STOP:
            return None
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                self._queue.put(_STOP)  # re-arm shutdown for after this batch
                break
            batch.append(item)
        return batch

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._dispatch(batch)

    def _dispatch(self, batch: list[_Pending]) -> None:
        # a waiter that timed out already returned its envelope; running
        # its request would only waste a batch slot on an answer nobody
        # will read
        live = [p for p in batch if not p.cancelled]
        if len(live) < len(batch):
            obs_metrics.inc("server.batch.cancelled", len(batch) - len(live))
        if not live:
            return
        started = WALL()
        obs_metrics.observe("server.batch.occupancy", len(live))
        for pending in live:
            obs_metrics.observe("server.queue_wait_s",
                                started - pending.enqueued_at)
        try:
            with obs_trace.span("server.batch", family=self.name,
                                occupancy=len(live)):
                results = self._execute([p.request for p in live])
            if len(results) != len(live):
                raise RuntimeError(
                    f"batch executor returned {len(results)} results "
                    f"for {len(live)} requests")
        except JobError as error:
            # fail-fast executor: the run aborted, so every waiter in the
            # batch gets the failing job's envelope
            envelope = envelope_from_job_error(error)
            results = [envelope] * len(live)
        except Exception as error:  # noqa: BLE001 — never hang a waiter
            envelope = ErrorEnvelope(kind=INTERNAL, key=self.name,
                                     message=repr(error))
            results = [envelope] * len(live)
        for pending, result in zip(live, results):
            pending.resolve(result)
