"""Versioned, typed request/response API — the single evaluation contract.

Three frontends share this layer: the :class:`~repro.core.scenario.
Evaluation` façade (legacy methods translated into requests), the
``repro-eval`` CLI subcommands, and the ``repro-serve`` daemon
(:mod:`repro.server`).  The pieces:

- :mod:`repro.api.requests` / :mod:`repro.api.responses` — the frozen
  dataclasses of the contract, stamped with :data:`API_VERSION`;
- :mod:`repro.api.errors` — the stable :class:`ErrorEnvelope` every
  frontend serializes failures through (the ``JobError`` kind/key
  taxonomy);
- :mod:`repro.api.schema` — explicit JSON schemas plus a stdlib
  validator;
- :mod:`repro.api.codec` — tagged dataclass ↔ JSON codecs
  (``decode(encode(x)) == x``, deterministic bytes);
- :mod:`repro.api.service` — :class:`ApiService`, which turns requests
  into task graphs on the shared scheduler/cache and maps results (or
  failures) back per request.
"""

from repro.api.codec import API_TYPES, decode, dumps, encode, loads
from repro.api.errors import (OVERLOADED, TIMEOUT, ApiError, ErrorEnvelope,
                              ValidationError, envelope_from_failure,
                              envelope_from_job_error, overloaded_envelope,
                              skipped_envelope, timeout_envelope)
from repro.api.requests import (API_VERSION, STREAMING_METHODS,
                                CompressRequest, ForecastRequest, GridRequest,
                                StreamCloseRequest, StreamOpenRequest,
                                StreamPushRequest, TraceRequest)
from repro.api.responses import (CompressResponse, ForecastResponse,
                                 GridSubmitResponse, HealthResponse,
                                 RunStatusResponse, StreamOpenResponse,
                                 StreamPushResponse, StreamSegment,
                                 StreamStatusResponse, TraceResponse)
from repro.api.schema import SCHEMAS, validate, validate_payload
from repro.api.service import ApiService

__all__ = [
    "API_TYPES",
    "API_VERSION",
    "ApiError",
    "ApiService",
    "CompressRequest",
    "CompressResponse",
    "ErrorEnvelope",
    "ForecastRequest",
    "ForecastResponse",
    "GridRequest",
    "GridSubmitResponse",
    "HealthResponse",
    "OVERLOADED",
    "RunStatusResponse",
    "SCHEMAS",
    "STREAMING_METHODS",
    "StreamCloseRequest",
    "StreamOpenRequest",
    "StreamOpenResponse",
    "StreamPushRequest",
    "StreamPushResponse",
    "StreamSegment",
    "StreamStatusResponse",
    "TIMEOUT",
    "TraceRequest",
    "TraceResponse",
    "ValidationError",
    "decode",
    "dumps",
    "encode",
    "envelope_from_failure",
    "envelope_from_job_error",
    "loads",
    "overloaded_envelope",
    "skipped_envelope",
    "timeout_envelope",
    "validate",
    "validate_payload",
]
