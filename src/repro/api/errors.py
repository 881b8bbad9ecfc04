"""Stable error envelopes shared by every frontend.

A failure crossing the API boundary — a grid cell that exhausted its
retries, a malformed request, a run id nobody knows — is always reported
as one shape: the :class:`ErrorEnvelope`.  Its field set mirrors the
runtime's failure taxonomy (:class:`~repro.runtime.manifest.FailureRecord`
/ :class:`~repro.runtime.manifest.JobError`): ``kind`` names the failing
phase ("compress", "train", "forecast", or an API-level kind such as
"validation"), ``key`` the content-addressed job key (or the offending
endpoint/field), ``message`` the exception repr, ``attempts`` how many
times the runtime tried, and ``description`` the human-readable job spec.

``ApiService.failure_envelopes()``, the ``/v1/runs/{id}`` endpoint,
and every non-2xx ``repro-serve`` response serialize through this one
dataclass, so a client can handle failures identically no matter which
frontend produced them (pinned by ``tests/api/test_envelopes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.manifest import FailureRecord, JobError

#: API-level envelope kinds (runtime kinds are the job kinds themselves)
VALIDATION = "validation"
NOT_FOUND = "not_found"
INTERNAL = "internal"
#: the server shed this request under overload (HTTP 429 + Retry-After);
#: the work was NOT started — a retry after backoff is safe and expected
OVERLOADED = "overloaded"
#: the caller's wait expired before the batch resolved (HTTP 504); the
#: request is cancelled server-side and will not occupy a batch slot
TIMEOUT = "timeout"


@dataclass(frozen=True)
class ErrorEnvelope:
    """One failure, in the shape every frontend serializes it."""

    #: failing phase: a job kind ("compress", "train", "forecast",
    #: "features") or an API-level kind ("validation", "not_found", ...)
    kind: str
    #: content-addressed job key, or the offending endpoint/field
    key: str
    #: ``repr()`` of the underlying exception (or a plain message)
    message: str
    #: attempts the runtime made (1 for API-level failures)
    attempts: int = 1
    #: human-readable spec of the failing unit (``JobSpec.describe()``)
    description: str = ""

    def summary(self) -> str:
        """One log-friendly line naming the failure."""
        what = self.description or self.key
        plural = "s" if self.attempts != 1 else ""
        return (f"{self.kind}: {what} failed after {self.attempts} "
                f"attempt{plural}: {self.message}")


class ApiError(Exception):
    """A request that cannot be served; carries its envelope and status."""

    def __init__(self, envelope: ErrorEnvelope, status: int = 400) -> None:
        super().__init__(envelope.summary())
        self.envelope = envelope
        self.status = status


class ValidationError(ApiError):
    """A request payload that failed schema or semantic validation."""

    def __init__(self, message: str, key: str = "") -> None:
        super().__init__(ErrorEnvelope(kind=VALIDATION, key=key,
                                       message=message), status=400)


def envelope_from_failure(failure: FailureRecord) -> ErrorEnvelope:
    """The envelope of one exhausted runtime failure."""
    return ErrorEnvelope(kind=failure.kind, key=failure.key,
                         message=failure.error, attempts=failure.attempts,
                         description=failure.description)


def envelope_from_job_error(error: JobError) -> ErrorEnvelope:
    """The envelope of a fail-fast :class:`JobError` (same shape as its
    underlying :class:`FailureRecord`)."""
    return envelope_from_failure(error.failure)


def skipped_envelope(kind: str, key: str, description: str = ""
                     ) -> ErrorEnvelope:
    """Envelope for a job skipped because an upstream dependency failed."""
    return ErrorEnvelope(kind=kind, key=key,
                         message="skipped: upstream dependency failed",
                         attempts=0, description=description)


def overloaded_envelope(key: str, message: str) -> ErrorEnvelope:
    """Envelope for a request shed by backpressure (never executed)."""
    return ErrorEnvelope(kind=OVERLOADED, key=key, message=message,
                         attempts=0)


def timeout_envelope(key: str, message: str) -> ErrorEnvelope:
    """Envelope for a caller whose wait expired before its batch ran."""
    return ErrorEnvelope(kind=TIMEOUT, key=key, message=message)
