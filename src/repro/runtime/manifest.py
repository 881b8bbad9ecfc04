"""Run accounting: manifests, attempt/failure records, and ``JobError``.

One :class:`RunManifest` is produced per scheduler run — counts over the
*planned subtree*, per-kind compute seconds, one :class:`AttemptRecord`
per job attempt (including retried, lost, and failed ones), and a
:class:`FailureRecord` per job that exhausted its attempts.  The manifest
is available as ``Scheduler.last_manifest`` even when the run raised, and
``RunManifest.to_dict()`` is the JSON shape persisted as
``manifest.json`` and served by ``/v1/runs/{id}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.deadline import JobTimeoutError


@dataclass(frozen=True)
class AttemptRecord:
    """One job attempt (successful or not), as recorded in the manifest.

    The same attempt is also emitted as a ``job`` span when tracing is
    enabled; the manifest copy keeps run post-mortems possible even when
    no trace sink was configured.
    """

    kind: str
    key: str
    #: 1-based attempt number (2+ are retries or requeues)
    attempt: int
    #: "ok", "error", "timeout", or "lost" (a worker died holding the job)
    outcome: str
    #: seconds between submission and execution start (None when unknown,
    #: e.g. a pool attempt that died before reporting)
    queue_wait_s: float | None
    #: execute time of the attempt (None when it raised)
    execute_s: float | None
    #: ``repr()`` of the exception for failed attempts
    error: str | None = None


@dataclass(frozen=True)
class FailureRecord:
    """One job that exhausted its attempts, as recorded in the manifest."""

    kind: str
    key: str
    #: human-readable spec (``JobSpec.describe()``)
    description: str
    #: ``repr()`` of the final exception
    error: str
    #: total attempts made (1 = no retries configured or needed)
    attempts: int


class JobError(RuntimeError):
    """A job failed in fail-fast mode; names the failing job's kind and key."""

    def __init__(self, failure: FailureRecord) -> None:
        super().__init__(
            f"{failure.description} [{failure.key}] failed after "
            f"{failure.attempts} attempt{'s' if failure.attempts != 1 else ''}"
            f": {failure.error}")
        self.failure = failure

    @property
    def kind(self) -> str:
        return self.failure.kind

    @property
    def key(self) -> str:
        return self.failure.key


class WorkerLostError(RuntimeError):
    """A queue job's lease expired repeatedly: its workers kept dying."""


@dataclass
class RunManifest:
    """What one scheduler run did, for logs and the CLI ``grid`` command.

    Counts cover the *planned subtree* — the targets plus every dependency
    that had to be probed to materialize them — not the whole graph, so
    the cache hit rate reflects the requested work and large grids never
    pay O(graph) disk stats for a one-cell run.
    """

    total: int = 0
    cached: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    #: summed compute seconds per job kind (CPU-side, not wall when parallel)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: executed job count per kind
    phase_executed: dict[str, int] = field(default_factory=dict)
    #: planned job count per kind
    phase_total: dict[str, int] = field(default_factory=dict)
    workers: int = 1
    #: execution backend that ran the jobs ("serial", "pool", "queue")
    backend: str = "serial"
    #: jobs that exhausted their attempts (keep-going and fail-fast alike)
    failures: list[FailureRecord] = field(default_factory=list)
    #: keys skipped because an upstream dependency failed (keep-going mode)
    skipped: list[str] = field(default_factory=list)
    #: every job attempt made this run, including retried and failed ones
    attempts: list[AttemptRecord] = field(default_factory=list)

    def record_attempt(self, kind: str, key: str, attempt: int, outcome: str,
                       queue_wait_s: float | None, execute_s: float | None,
                       error: str | None = None) -> None:
        self.attempts.append(AttemptRecord(kind, key, attempt, outcome,
                                           queue_wait_s, execute_s, error))

    def to_dict(self) -> dict:
        """JSON-serializable form, persisted as ``manifest.json`` by the
        ``grid --trace`` CLI and read back by ``repro-eval trace``."""
        from dataclasses import asdict

        return {
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "backend": self.backend,
            "phase_seconds": dict(self.phase_seconds),
            "phase_executed": dict(self.phase_executed),
            "phase_total": dict(self.phase_total),
            "failures": [asdict(failure) for failure in self.failures],
            "skipped": list(self.skipped),
            "attempts": [asdict(attempt) for attempt in self.attempts],
        }

    def record_probe(self, kind: str, hit: bool) -> None:
        self.total += 1
        self.phase_total[kind] = self.phase_total.get(kind, 0) + 1
        if hit:
            self.cached += 1

    def record_execution(self, kind: str, seconds: float) -> None:
        self.executed += 1
        self.phase_seconds[kind] = self.phase_seconds.get(kind, 0.0) + seconds
        self.phase_executed[kind] = self.phase_executed.get(kind, 0) + 1

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of planned jobs whose results were already cached."""
        return self.cached / self.total if self.total else 0.0

    def lines(self) -> list[str]:
        out = [f"jobs      : {self.total} planned, {self.cached} cached "
               f"({self.cache_hit_rate:.0%}), {self.executed} executed",
               f"wall time : {self.wall_seconds:.2f}s "
               f"({self.workers} worker{'s' if self.workers != 1 else ''}, "
               f"{self.backend} backend)"]
        for kind in sorted(self.phase_total):
            executed = self.phase_executed.get(kind, 0)
            seconds = self.phase_seconds.get(kind, 0.0)
            out.append(f"{kind:<10s}: {executed}/{self.phase_total[kind]} "
                       f"executed, {seconds:.2f}s compute")
        if self.failures or self.skipped:
            out.append(f"failures  : {len(self.failures)} failed, "
                       f"{len(self.skipped)} skipped downstream")
            for failure in self.failures:
                plural = "s" if failure.attempts != 1 else ""
                out.append(f"  {failure.description}: {failure.error} "
                           f"({failure.attempts} attempt{plural})")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def attempt_outcome(error: BaseException) -> str:
    """Attempt-record outcome label for a failed attempt."""
    return "timeout" if isinstance(error, JobTimeoutError) else "error"
