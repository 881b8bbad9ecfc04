"""JSON schemas for every API payload, plus a tiny stdlib validator.

Each request/response dataclass has one explicit schema here — written
out by hand rather than generated, because the schema *is* the versioned
wire contract: a field rename or type change must show up in this file
(and its pinning tests) as a deliberate diff.  The validator supports the
subset of JSON Schema the contract needs — ``type`` (scalar or union),
``object`` with ``required`` / ``properties`` / homogeneous ``values``,
``array`` with ``items``, ``enum``, and ``$ref`` into the schema registry
— so no third-party dependency is required.

Payloads are tagged: every encoded object carries ``"type"`` (the
dataclass name) and ``"v"`` (the :data:`~repro.api.requests.API_VERSION`
it was produced under).  :func:`validate_payload` dispatches on the tag;
:func:`validate` checks one value against one schema fragment and raises
:class:`~repro.api.errors.ValidationError` naming the offending path.
"""

from __future__ import annotations

from typing import Any

from repro.api.errors import ValidationError
from repro.api.requests import API_VERSION

_STRING = {"type": "string"}
_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_BOOLEAN = {"type": "boolean"}
_NULL_INT = {"type": ["integer", "null"]}
_METRIC_MAP = {"type": "object", "values": {"type": "number"}}


def _array(items: dict, nullable: bool = False) -> dict:
    schema: dict[str, Any] = {"type": "array", "items": items}
    if nullable:
        schema["type"] = ["array", "null"]
    return schema


def _tagged(required: list[str], properties: dict[str, dict]) -> dict:
    """An object schema for one tagged payload type."""
    return {
        "type": "object",
        "required": ["type", "v"] + required,
        "properties": {"type": _STRING, "v": _INTEGER, **properties},
    }


#: schema per payload type name — the stable wire contract
SCHEMAS: dict[str, dict] = {
    "CompressRequest": _tagged(
        ["dataset", "method", "error_bound"],
        {"dataset": _STRING, "method": _STRING, "error_bound": _NUMBER,
         "part": _STRING, "length": _NULL_INT}),
    "ForecastRequest": _tagged(
        ["model", "dataset"],
        {"model": _STRING, "dataset": _STRING, "method": _STRING,
         "error_bound": _NUMBER, "seed": _INTEGER, "retrained": _BOOLEAN,
         "length": _NULL_INT, "task": _STRING}),
    "GridRequest": _tagged(
        [],
        {"datasets": _array(_STRING, nullable=True),
         "models": _array(_STRING, nullable=True),
         "methods": _array(_STRING, nullable=True),
         "error_bounds": _array(_NUMBER, nullable=True),
         "include_baseline": _BOOLEAN, "retrained": _BOOLEAN,
         "seeds": _NULL_INT, "length": _NULL_INT, "task": _STRING}),
    "TraceRequest": _tagged(
        ["run_dir"], {"run_dir": _STRING, "top": _INTEGER}),
    "StreamOpenRequest": _tagged(
        ["method", "error_bound"],
        {"method": _STRING, "error_bound": _NUMBER,
         "max_segment_length": _INTEGER, "forecaster": _STRING,
         "horizon": _INTEGER, "forecast_every": _INTEGER,
         "ttl_s": {"type": ["number", "null"]}}),
    "StreamPushRequest": _tagged(
        ["values"], {"values": _array(_NUMBER)}),
    "StreamCloseRequest": _tagged(
        [], {"values": _array(_NUMBER)}),
    "CompressResponse": _tagged(
        ["dataset", "method", "error_bound", "part", "compressed_size",
         "compression_ratio", "num_segments"],
        {"dataset": _STRING, "method": _STRING, "error_bound": _NUMBER,
         "part": _STRING, "compressed_size": _INTEGER,
         "compression_ratio": _NUMBER, "num_segments": _INTEGER,
         "te": _METRIC_MAP}),
    "ForecastResponse": _tagged(
        ["dataset", "model", "method", "error_bound", "seed", "retrained"],
        {"dataset": _STRING, "model": _STRING, "method": _STRING,
         "error_bound": _NUMBER, "seed": _INTEGER, "retrained": _BOOLEAN,
         "metrics": _METRIC_MAP, "task": _STRING}),
    "GridSubmitResponse": _tagged(
        ["run_id", "cells"],
        {"run_id": _STRING, "cells": _INTEGER, "status": _STRING}),
    "RunStatusResponse": _tagged(
        ["run_id", "status"],
        {"run_id": _STRING,
         "status": {"enum": ["pending", "running", "done", "failed",
                             "interrupted"]},
         "manifest": {"type": ["object", "null"]},
         "failures": _array({"$ref": "ErrorEnvelope"}),
         "records": _array({"$ref": "ForecastResponse"})}),
    "TraceResponse": _tagged(
        ["run_dir"], {"run_dir": _STRING, "lines": _array(_STRING)}),
    "StreamSegment": _tagged(
        ["kind", "length", "params"],
        {"kind": {"enum": ["constant", "linear", "lfzip"]},
         "length": _INTEGER, "params": _array(_NUMBER)}),
    "StreamOpenResponse": _tagged(
        ["session_id", "method", "error_bound", "max_segment_length",
         "forecaster", "horizon", "forecast_every", "ttl_s"],
        {"session_id": _STRING, "method": _STRING, "error_bound": _NUMBER,
         "max_segment_length": _INTEGER, "forecaster": _STRING,
         "horizon": _INTEGER, "forecast_every": _INTEGER, "ttl_s": _NUMBER}),
    "StreamPushResponse": _tagged(
        ["session_id", "pushed", "ticks"],
        {"session_id": _STRING, "pushed": _INTEGER, "ticks": _INTEGER,
         "segments": _array({"$ref": "StreamSegment"}),
         "segments_total": _INTEGER, "forecast": _array(_NUMBER),
         "forecast_at": _NULL_INT, "closed": _BOOLEAN}),
    "StreamStatusResponse": _tagged(
        ["session_id", "ticks", "segments_total", "resident", "idle_s",
         "method", "forecaster", "horizon"],
        {"session_id": _STRING, "ticks": _INTEGER,
         "segments_total": _INTEGER, "resident": _BOOLEAN,
         "idle_s": _NUMBER, "method": _STRING, "forecaster": _STRING,
         "horizon": _INTEGER}),
    "HealthResponse": _tagged(
        ["status", "version"],
        {"status": _STRING, "version": _INTEGER, "uptime_s": _NUMBER,
         "runs": _INTEGER, "inflight_runs": _INTEGER}),
    "ErrorEnvelope": _tagged(
        ["kind", "key", "message"],
        {"kind": _STRING, "key": _STRING, "message": _STRING,
         "attempts": _INTEGER, "description": _STRING}),
}

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
}

#: per scalar ``items`` type, the exact Python types that certainly pass
#: it, so an array of them is accepted with one C-level type scan
_EXACT_TYPES = {"string": frozenset({str}), "number": frozenset({int, float}),
                "integer": frozenset({int}), "boolean": frozenset({bool}),
                "null": frozenset({type(None)})}


def validate(value: Any, schema: dict, path: str = "$") -> None:
    """Check ``value`` against one schema fragment; raise on mismatch.

    An array whose ``items`` schema is one scalar type is checked in one
    pass over its element types; the ``$.name[i]`` path is built only for
    the first element that fails, so the error is the one a per-element
    walk (:func:`repro.reference.validate`) raises.
    """
    if "$ref" in schema:
        target = SCHEMAS.get(schema["$ref"])
        if target is None:
            raise ValidationError(f"unknown $ref {schema['$ref']!r}",
                                  key=path)
        validate(value, target, path)
        return
    if "enum" in schema:
        if value not in schema["enum"]:
            raise ValidationError(
                f"{path}: {value!r} not in {schema['enum']}", key=path)
        return
    kinds = schema.get("type")
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds or ())
    if kinds and not any(_TYPE_CHECKS[kind](value) for kind in kinds):
        raise ValidationError(
            f"{path}: expected {' or '.join(kinds)}, "
            f"got {type(value).__name__}", key=path)
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise ValidationError(f"{path}: missing required field "
                                      f"{name!r}", key=path)
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                validate(value[name], sub, f"{path}.{name}")
        if "values" in schema:
            for name, item in value.items():
                validate(item, schema["values"], f"{path}.{name}")
    elif isinstance(value, list) and "items" in schema:
        items = schema["items"]
        kind = items.get("type") if len(items) == 1 else None
        exact = _EXACT_TYPES.get(kind) if isinstance(kind, str) else None
        if exact is None:
            for index, item in enumerate(value):
                validate(item, items, f"{path}[{index}]")
        elif not exact.issuperset(map(type, value)):
            # a subclass (numpy float) or a wrong type: find the first
            # element the predicate rejects and raise its error
            check = _TYPE_CHECKS[kind]
            for index, item in enumerate(value):
                if not check(item):
                    validate(item, items, f"{path}[{index}]")


def validate_payload(payload: Any) -> dict:
    """Validate one tagged payload against its registered schema.

    Returns the payload (for chaining).  Unknown tags and future wire
    versions are rejected — an old server never silently misparses a
    newer client's request.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"payload must be a JSON object, got {type(payload).__name__}")
    tag = payload.get("type")
    if tag not in SCHEMAS:
        raise ValidationError(f"unknown payload type {tag!r}", key="type")
    version = payload.get("v")
    if not isinstance(version, int) or version > API_VERSION or version < 1:
        raise ValidationError(
            f"unsupported API version {version!r} "
            f"(this build speaks <= {API_VERSION})", key="v")
    validate(payload, SCHEMAS[tag])
    return payload
