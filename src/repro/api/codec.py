"""Dataclass ↔ JSON codecs for every API request and response.

One pair of functions covers the whole contract:

- :func:`encode` turns an API dataclass into a *tagged* JSON-safe dict —
  ``{"type": "<ClassName>", "v": API_VERSION, ...fields}`` — recursing
  into nested dataclasses and converting tuples to lists;
- :func:`decode` validates a tagged payload against its schema
  (:mod:`repro.api.schema`) and rebuilds the dataclass, converting
  lists back to tuples and recursing into nested tagged objects.

A flat array of plain scalars (the ticks of a stream push, a forecast)
converts with one ``list(...)`` or ``tuple(...)`` call each way; only
nested containers recurse.

``decode(encode(x)) == x`` for every API type (pinned by a round-trip
test over the full registry).  :func:`dumps` / :func:`loads` wrap the
JSON step with deterministic settings — sorted keys, compact separators —
so two runs producing equal objects produce *byte-identical* wire bodies
(the cold-vs-warm server test relies on this).  Non-finite floats (the
``NaN`` a degenerate TE cell produces) use Python's JSON literal
extension, which round-trips through :mod:`json` unchanged.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any

from repro.api.errors import ErrorEnvelope, ValidationError
from repro.api.requests import (API_VERSION, CompressRequest, ForecastRequest,
                                GridRequest, StreamCloseRequest,
                                StreamOpenRequest, StreamPushRequest,
                                TraceRequest)
from repro.api.responses import (CompressResponse, ForecastResponse,
                                 GridSubmitResponse, HealthResponse,
                                 RunStatusResponse, StreamOpenResponse,
                                 StreamPushResponse, StreamSegment,
                                 StreamStatusResponse, TraceResponse)
from repro.api.schema import validate_payload

#: every type that may cross the wire, by payload tag
API_TYPES: dict[str, type] = {cls.__name__: cls for cls in (
    CompressRequest, ForecastRequest, GridRequest, TraceRequest,
    StreamOpenRequest, StreamPushRequest, StreamCloseRequest,
    CompressResponse, ForecastResponse, GridSubmitResponse,
    RunStatusResponse, TraceResponse, HealthResponse, ErrorEnvelope,
    StreamSegment, StreamOpenResponse, StreamPushResponse,
    StreamStatusResponse,
)}


#: element types an array is converted in one call, without recursing
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode_value(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return encode(value)
    if isinstance(value, (list, tuple)):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode_value(item) for key, item in value.items()}
    return value


def encode(obj: Any) -> dict[str, Any]:
    """The tagged JSON-safe payload of one API dataclass."""
    name = type(obj).__name__
    if name not in API_TYPES:
        raise TypeError(f"{name} is not a registered API type")
    payload: dict[str, Any] = {"type": name, "v": API_VERSION}
    for spec in fields(obj):
        payload[spec.name] = _encode_value(getattr(obj, spec.name))
    return payload


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get("type") in API_TYPES:
            return decode(value)
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        # the contract has no mutable sequences: every array is a tuple
        if _SCALARS.issuperset(map(type, value)):
            return tuple(value)
        return tuple(_decode_value(item) for item in value)
    return value


def decode(payload: dict[str, Any], expect: type | None = None) -> Any:
    """Rebuild the API dataclass a tagged payload encodes.

    The payload is schema-validated once, here; a caller does not check
    it first.  A nested tagged payload (``RunStatusResponse.records``,
    ``StreamPushResponse.segments``, one inside a free-form ``manifest``)
    is decoded, and so validated, on its own.  ``expect`` additionally
    pins the decoded type (a ``CompressRequest`` endpoint rejects a
    perfectly valid ``GridRequest`` body with a 400, not a crash).
    """
    validate_payload(payload)
    cls = API_TYPES[payload["type"]]
    if expect is not None and cls is not expect:
        raise ValidationError(
            f"expected a {expect.__name__} payload, got {payload['type']}",
            key="type")
    names = {spec.name for spec in fields(cls)}
    kwargs = {name: _decode_value(value) for name, value in payload.items()
              if name in names}
    return cls(**kwargs)


def dumps(obj: Any) -> str:
    """Deterministic JSON text of one API dataclass (sorted, compact)."""
    return json.dumps(encode(obj), sort_keys=True, separators=(",", ":"))


def loads(text: str | bytes, expect: type | None = None) -> Any:
    """Parse JSON text into the API dataclass it encodes."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValidationError(f"invalid JSON: {error}") from error
    return decode(payload, expect=expect)
