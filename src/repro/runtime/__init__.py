"""A small deterministic task-graph runtime for the evaluation grid.

The paper's experimental grid is expressed as declarative, content-
addressed job specs (:mod:`repro.runtime.jobs`), wired into a dependency
DAG (:mod:`repro.runtime.graph`) and executed through one shared cache
by the backend-agnostic :mod:`repro.runtime.scheduler` on a pluggable
:mod:`execution backend <repro.runtime.backends>` — serial in-process, a
process pool, or a durable SQLite job queue with independent workers.
:class:`repro.api.service.ApiService` builds these graphs for every
frontend (in-process calls, the ``repro-eval`` CLI and ``repro-serve``),
and ``repro-eval worker`` attaches extra queue workers to a live run.
"""

from repro.runtime.backends import (CompletionEvent, ExecutionBackend,
                                    make_backend)
from repro.runtime.deadline import JobTimeoutError, call_with_deadline
from repro.runtime.faults import InjectedFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import (CompressJob, FeatureJob, ForecastJob,
                                JobSpec, RuntimeContext, TrainJob,
                                evaluate_windows, freeze_kwargs,
                                test_windows)
from repro.runtime.manifest import (AttemptRecord, FailureRecord, JobError,
                                    RunManifest, WorkerLostError)
from repro.runtime.queue import JobQueue
from repro.runtime.scheduler import Scheduler
from repro.runtime.store import RunStore

__all__ = [
    "AttemptRecord",
    "CompletionEvent",
    "CompressJob",
    "ExecutionBackend",
    "FailureRecord",
    "FeatureJob",
    "ForecastJob",
    "InjectedFailure",
    "JobError",
    "JobQueue",
    "JobSpec",
    "JobTimeoutError",
    "RunManifest",
    "RunStore",
    "RuntimeContext",
    "Scheduler",
    "TaskGraph",
    "TrainJob",
    "WorkerLostError",
    "call_with_deadline",
    "evaluate_windows",
    "freeze_kwargs",
    "make_backend",
    "test_windows",
]
