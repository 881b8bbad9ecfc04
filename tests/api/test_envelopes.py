"""The failure contract: one envelope shape across every frontend.

Regression-pins the ``ErrorEnvelope`` wire schema and verifies that a
failing grid cell surfaces *identically* through the runtime
(``FailureRecord`` / fail-fast ``JobError``), the in-process service
(``ApiService.failure_envelopes()``), and the server
(``/v1/runs/{id}``).  A key or field drifting in any one of them breaks
clients of the other two — this file is the tripwire.
"""

import pytest

from repro.api import ErrorEnvelope, encode
from repro.api.errors import (envelope_from_failure, envelope_from_job_error,
                              skipped_envelope)
from repro.runtime.manifest import FailureRecord, JobError

#: THE envelope wire shape.  Changing this set is an API break: bump
#: API_VERSION and keep a migration note in DESIGN.md.
PINNED_ENVELOPE_KEYS = {"type", "v", "kind", "key", "message", "attempts",
                        "description"}

RECORD = FailureRecord(kind="forecast", key="forecast-deadbeef",
                       description="forecast(model='Arima', ...)",
                       error="ValueError('boom')", attempts=2)


def test_envelope_payload_keys_are_pinned():
    payload = encode(envelope_from_failure(RECORD))
    assert set(payload) == PINNED_ENVELOPE_KEYS
    assert payload["type"] == "ErrorEnvelope"


def test_envelope_golden_payload():
    assert encode(envelope_from_failure(RECORD)) == {
        "type": "ErrorEnvelope",
        "v": 1,
        "kind": "forecast",
        "key": "forecast-deadbeef",
        "message": "ValueError('boom')",
        "attempts": 2,
        "description": "forecast(model='Arima', ...)",
    }


def test_failure_record_and_job_error_serialize_identically():
    # keep-going reports the FailureRecord; fail-fast wraps the very same
    # record in a JobError — both must produce one envelope
    assert (envelope_from_failure(RECORD)
            == envelope_from_job_error(JobError(RECORD)))


def test_skipped_envelope_shape():
    envelope = skipped_envelope("train", "train-abc")
    assert envelope.attempts == 0
    assert "upstream" in envelope.message
    assert set(encode(envelope)) == PINNED_ENVELOPE_KEYS


def test_summary_names_kind_and_attempts():
    summary = envelope_from_failure(RECORD).summary()
    assert "forecast" in summary and "2 attempts" in summary


@pytest.fixture()
def failing_config(tmp_path, monkeypatch):
    from repro.core.config import EvaluationConfig

    monkeypatch.setenv("REPRO_INJECT_FAILURE", "forecast:SWING")
    return EvaluationConfig(
        datasets=("ETTm1",), models=("GBoost",),
        compressors=("PMC", "SWING"), error_bounds=(0.1,),
        dataset_length=1_200, input_length=48, horizon=12, eval_stride=12,
        deep_seeds=1, simple_seeds=1, cache_dir=None, keep_going=True)


def test_facade_and_server_report_the_same_envelopes(failing_config):
    from repro.api import ApiService, GridRequest, loads, dumps
    from repro.server.app import ReproServer
    from repro.server.client import ReproClient

    service = ApiService(failing_config)
    records, _ = service.grid(GridRequest())
    service_envelopes = service.failure_envelopes()
    assert records, "healthy PMC cells must survive the SWING failure"
    assert service_envelopes, "the injected SWING failure must be reported"

    with ReproServer(failing_config, port=0) as server:
        client = ReproClient(port=server.port)
        submitted = client.grid(GridRequest())
        done = client.wait_for_run(submitted.run_id, timeout=300.0)

    assert done.status == "done"
    # identical serialization: same envelope payloads, frontend-independent
    assert ([encode(e) for e in done.failures]
            == [encode(e) for e in service_envelopes])
    # and the wire round trip preserves them exactly
    for envelope in done.failures:
        assert loads(dumps(envelope)) == envelope
        assert isinstance(envelope, ErrorEnvelope)
