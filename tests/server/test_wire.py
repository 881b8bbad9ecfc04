"""The wire path of the daemon: bad ticks, one schema pass, one send.

- A non-finite, non-numeric or nested tick on ``/push``, ``/close`` or an
  ``/ingest`` line is refused with a ``validation`` envelope naming the
  first bad index, and the session's tick count does not move.
- Each request body is schema-checked exactly once (inside
  ``codec.decode``), not once by the handler and again by the codec.
- A plain response (status line, headers and body) leaves the server in
  one socket send.
- An ``/ingest`` client that resets before the response starts has its
  session discarded at once, not left alive until its TTL.
"""

import contextlib
import json
import socket
import sys
import threading

import pytest

from repro.api import (CompressRequest, StreamOpenRequest, StreamPushRequest,
                       encode, schema)
from repro.core.config import EvaluationConfig
from repro.server.app import ReproServer
from repro.server.client import ReproClient, ServerError

#: one tick per kind of rejection: JSON's NaN/Infinity extensions pass the
#: schema and fail the finite check; the rest fail the schema
BAD_TICKS = [float("nan"), float("inf"), True, "1.0", [1.0]]
BAD_IDS = ["NaN", "Infinity", "true", "string", "nested"]

#: the bad tick sits at index 2, with a second one after it
BAD_INDEX = 2


def _chunk(bad):
    return [1.0, 2.0, bad, 3.0, bad]


def _config():
    return EvaluationConfig(datasets=("ETTm1",), models=("GBoost",),
                            compressors=("PMC",), error_bounds=(0.1,),
                            dataset_length=1_200, input_length=48,
                            horizon=12, eval_stride=12, deep_seeds=1,
                            simple_seeds=1, cache_dir=None, keep_going=True)


@pytest.fixture(scope="module")
def server():
    with ReproServer(_config(), port=0) as instance:
        yield instance


@pytest.fixture()
def client(server):
    return ReproClient(port=server.port)


def _session(client):
    """An open session that already holds four ticks."""
    sid = client.stream_open(StreamOpenRequest(
        method="PMC", error_bound=0.1, forecast_every=0)).session_id
    client.stream_push(sid, [5.0, 5.0, 6.0, 6.0])
    return sid


def _assert_names_first_bad_index(envelope):
    assert envelope.kind == "validation"
    assert f"values[{BAD_INDEX}]" in envelope.message
    assert f"values[{BAD_INDEX + 2}]" not in envelope.message


@pytest.mark.parametrize("action", ["push", "close"])
@pytest.mark.parametrize("bad", BAD_TICKS, ids=BAD_IDS)
def test_bad_tick_is_a_400_and_leaves_the_session_untouched(client, action,
                                                            bad):
    sid = _session(client)
    type_name = "StreamPushRequest" if action == "push" \
        else "StreamCloseRequest"
    payload = {"type": type_name, "v": 1, "values": _chunk(bad)}
    with pytest.raises(ServerError) as excinfo:
        client._request("POST", f"/v1/stream/{sid}/{action}", payload)
    assert excinfo.value.status == 400
    _assert_names_first_bad_index(excinfo.value.envelope)
    assert client.stream_status(sid).ticks == 4
    client.stream_close(sid)


def _ingest(port, sid, line: bytes) -> bytes:
    """One chunked ``/ingest`` request carrying ``line``; the raw reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall((f"POST /v1/stream/{sid}/ingest HTTP/1.1\r\n"
                      "Host: 127.0.0.1\r\nConnection: close\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n").encode())
        sock.sendall(b"%x\r\n%s\r\n0\r\n\r\n" % (len(line), line))
        raw = b""
        while block := sock.recv(65536):
            raw += block
    return raw


@pytest.mark.parametrize("bad", BAD_TICKS, ids=BAD_IDS)
def test_bad_tick_on_an_ingest_line_streams_the_error_line(server, client,
                                                            bad):
    sid = _session(client)
    line = json.dumps(_chunk(bad)).encode() + b"\n"
    with pytest.raises(ServerError) as excinfo:
        ReproClient._parse_ingest_response(_ingest(server.port, sid, line))
    _assert_names_first_bad_index(excinfo.value.envelope)
    assert client.stream_status(sid).ticks == 4
    client.stream_close(sid)


@pytest.fixture()
def schema_passes(monkeypatch):
    """Count ``validate_payload`` calls, under every name it is bound to."""
    calls = []
    original = schema.validate_payload

    def counting(payload):
        calls.append(payload.get("type"))
        return original(payload)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "validate_payload", None) is original):
            monkeypatch.setattr(module, "validate_payload", counting)
    return calls


def test_a_push_body_is_schema_checked_once(client, schema_passes):
    sid = client.stream_open(StreamOpenRequest(
        method="PMC", error_bound=0.1)).session_id
    schema_passes.clear()
    client.request_raw("POST", f"/v1/stream/{sid}/push", encode(
        StreamPushRequest(values=(1.0, 2.0, 3.0))))
    assert schema_passes == ["StreamPushRequest"]
    client.stream_close(sid)


def test_a_compress_body_is_schema_checked_once(client, schema_passes):
    status, _ = client.request_raw(
        "POST", "/v1/compress", encode(CompressRequest("ETTm1", "PMC", 0.1)))
    assert status == 200
    assert schema_passes == ["CompressRequest"]


def test_a_response_leaves_in_one_send(client, monkeypatch):
    """Status line, headers and body reach the socket in one call."""
    sends = []
    main = threading.main_thread()
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def counting(sock, data, *args, original=original):
            if threading.current_thread() is not main:
                sends.append(bytes(data))
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    status, body = client.request_raw("GET", "/v1/healthz")
    assert status == 200
    assert len(sends) == 1
    assert sends[0].startswith(b"HTTP/1.1 200") and sends[0].endswith(body)


def test_ingest_client_gone_before_the_response_drops_its_session(
        server, client, monkeypatch):
    """The first send of the ``/ingest`` headers hits a reset socket."""
    sid = _session(client)
    before = client.metricz()["counters"].get("server.stream.disconnects", 0)
    main = threading.main_thread()
    resets = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def resetting(sock, data, *args, original=original):
            if threading.current_thread() is not main and not resets:
                resets.append(bytes(data))
                raise ConnectionResetError("peer reset")
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, resetting)
    # what, if anything, reaches this side after the reset does not matter
    with contextlib.suppress(ConnectionError):
        _ingest(server.port, sid, b"[1.0, 2.0]\n")
    assert resets and resets[0].startswith(b"HTTP/1.1 200")
    with pytest.raises(ServerError) as excinfo:
        client.stream_status(sid)
    assert excinfo.value.status == 404
    after = client.metricz()["counters"]["server.stream.disconnects"]
    assert after == before + 1
