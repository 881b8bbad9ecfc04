"""The codec is the wire contract: round trips are the identity."""

import json
import math

import pytest

from repro.api import (API_TYPES, API_VERSION, CompressRequest,
                       CompressResponse, ErrorEnvelope, ForecastRequest,
                       ForecastResponse, GridRequest, GridSubmitResponse,
                       HealthResponse, RunStatusResponse, StreamCloseRequest,
                       StreamOpenRequest, StreamOpenResponse,
                       StreamPushRequest, StreamPushResponse, StreamSegment,
                       StreamStatusResponse, TraceRequest, TraceResponse,
                       ValidationError, decode, dumps, encode, loads)

EXAMPLES = [
    CompressRequest("ETTm1", "PMC", 0.1, part="test", length=512),
    ForecastRequest("DLinear", "Weather", method="SWING", error_bound=0.4,
                    seed=1, retrained=True),
    GridRequest(datasets=("ETTm1",), models=("Arima", "DLinear"),
                methods=("PMC",), error_bounds=(0.1, 0.4),
                include_baseline=False, retrained=True, seeds=2, length=999),
    TraceRequest(run_dir="/tmp/run", top=3),
    CompressResponse("ETTm1", "PMC", 0.1, "full", 123, 4.5, 7,
                     te={"NRMSE": 0.01, "RMSE": 1.0}),
    ForecastResponse("ETTm1", "Arima", "PMC", 0.1, 0, False,
                     metrics={"NRMSE": 0.2}),
    GridSubmitResponse("abc123", 12),
    RunStatusResponse("abc123", "done",
                      manifest={"total": 3, "failures": ()},
                      failures=(ErrorEnvelope("forecast", "k", "boom"),),
                      records=(ForecastResponse("ETTm1", "Arima", "RAW",
                                                0.0, 0, False,
                                                metrics={"NRMSE": 0.2}),)),
    TraceResponse("/tmp/run", lines=("a", "b")),
    HealthResponse("ok", API_VERSION, uptime_s=1.5, runs=2),
    ErrorEnvelope("compress", "compress-ff00", "ValueError('x')",
                  attempts=3, description="compress(...)"),
    StreamOpenRequest("PMC", 0.1, max_segment_length=64, forecaster="Drift",
                      horizon=12, forecast_every=4, ttl_s=30.0),
    StreamPushRequest(values=(1.0, 2.5, -3.25)),
    StreamCloseRequest(values=(9.0,)),
    StreamSegment("linear", 7, (0.5, 1.0)),
    StreamOpenResponse("ab12cd34", "PMC", 0.1, 64, "Drift", 12, 4, 30.0),
    StreamPushResponse("ab12cd34", pushed=3, ticks=10,
                       segments=(StreamSegment("constant", 4, (2.0,)),),
                       segments_total=3, forecast=(2.0, 2.0), forecast_at=3,
                       closed=True),
    StreamStatusResponse("ab12cd34", ticks=10, segments_total=3,
                         resident=True, idle_s=0.5, method="PMC",
                         forecaster="Drift", horizon=12),
]


@pytest.mark.parametrize("obj", EXAMPLES, ids=lambda o: type(o).__name__)
def test_round_trip_is_identity(obj):
    assert loads(dumps(obj)) == obj


@pytest.mark.parametrize("obj", EXAMPLES, ids=lambda o: type(o).__name__)
def test_payloads_are_tagged_and_versioned(obj):
    payload = encode(obj)
    assert payload["type"] == type(obj).__name__
    assert payload["v"] == API_VERSION


def test_every_registered_type_has_an_example():
    assert {type(o).__name__ for o in EXAMPLES} == set(API_TYPES)


def test_dumps_is_deterministic():
    a = CompressRequest("ETTm1", "PMC", 0.1)
    b = CompressRequest("ETTm1", "PMC", 0.1)
    assert dumps(a) == dumps(b)
    # sorted keys + compact separators: byte-stable across processes
    assert dumps(a) == json.dumps(encode(b), sort_keys=True,
                                  separators=(",", ":"))


def test_tuples_survive_the_wire_as_tuples():
    decoded = loads(dumps(GridRequest(datasets=("ETTm1", "Solar"))))
    assert decoded.datasets == ("ETTm1", "Solar")
    assert isinstance(decoded.datasets, tuple)


def test_no_mutable_sequences_even_inside_untyped_dicts():
    # the contract has no mutable sequences: JSON arrays decode as tuples
    # everywhere, including free-form dict values such as the manifest
    response = RunStatusResponse("r", "done",
                                 manifest={"skipped": ["a", "b"]})
    assert loads(dumps(response)).manifest["skipped"] == ("a", "b")


def test_nan_metrics_survive():
    response = CompressResponse("ETTm1", "SZ", 0.0, "full", 1, 1.0, 1,
                                te={"R": float("nan")})
    decoded = loads(dumps(response))
    assert math.isnan(decoded.te["R"])


def test_decode_rejects_unknown_type_tag():
    with pytest.raises(ValidationError, match="type"):
        decode({"type": "Nope", "v": 1})


def test_decode_rejects_future_version():
    payload = encode(CompressRequest("ETTm1", "PMC", 0.1))
    payload["v"] = API_VERSION + 1
    with pytest.raises(ValidationError, match="version"):
        decode(payload)


def test_decode_expect_mismatch_is_a_validation_error():
    payload = encode(CompressRequest("ETTm1", "PMC", 0.1))
    with pytest.raises(ValidationError):
        decode(payload, expect=ForecastRequest)


def test_loads_rejects_malformed_json():
    with pytest.raises(ValidationError):
        loads("{not json")


def _status_with_record(**changes):
    payload = encode(RunStatusResponse(
        "r", "done", records=(ForecastResponse("ETTm1", "Arima", "RAW", 0.0,
                                               0, False),)))
    payload["records"][0].update(changes)
    return payload


@pytest.mark.parametrize("changes", [
    {"v": API_VERSION + 1},
    {"type": "CompressResponse"},
], ids=["future-version", "other-type"])
def test_malformed_nested_record_is_rejected(changes):
    with pytest.raises(ValidationError):
        decode(_status_with_record(**changes))


def test_tagged_payload_inside_a_free_form_dict_is_checked():
    payload = encode(RunStatusResponse("r", "done", manifest={}))
    payload["manifest"] = {"last": {"type": "ErrorEnvelope", "v": 1,
                                    "kind": "x", "key": "k"}}
    with pytest.raises(ValidationError, match="message"):
        decode(payload)


@pytest.mark.parametrize("request_, limit", [
    (CompressRequest("ETTm1", "PMC", 0.1, length=10**12), 69_680),
    (ForecastRequest("Arima", "Solar", length=52_561), 52_560),
    (GridRequest(datasets=("Wind", "Weather"), length=60_000), 52_704),
    (GridRequest(length=432_001), 432_000),
    (CompressRequest("ETTm1", "PMC", 0.1, length=0), 69_680),
], ids=["compress", "forecast", "grid-named", "grid-unnamed", "zero"])
def test_length_beyond_table_1_is_refused(request_, limit):
    decoded = decode(encode(request_))
    with pytest.raises(ValidationError, match=f"in \\[1, {limit}\\]") as info:
        decoded.validate()
    assert info.value.envelope.key == "length"
    # the largest length each request may ask for passes
    ok = {"length": limit}
    decode({**encode(request_), **ok}).validate()
