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
- An ``/ingest`` chunk size is never trusted as an allocation: a huge
  size followed by a hang-up is a disconnect, with one status line on
  the wire and the session discarded.  Any other failure once the 200
  head is out ends the chunked body with one envelope line.
- A ``Content-Length`` that is not a non-negative integer is refused with
  a ``validation`` envelope before any body byte is read.
- A body that stops arriving is answered with a ``validation`` envelope
  once the request timeout passes, so a stalled client holds neither a
  handler thread nor :meth:`ReproServer.stop` for longer than that.
- The timeout bounds the whole body, not each read: a client that drips
  one byte at a time gets the same answer, on a fresh connection and on
  a kept-alive one.
"""

import contextlib
import json
import socket
import sys
import threading
import time

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


def test_a_huge_ingest_chunk_size_is_a_disconnect_not_a_second_status(
        server, client):
    sid = _session(client)
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as sock:
        sock.sendall((f"POST /v1/stream/{sid}/ingest HTTP/1.1\r\n"
                      "Host: 127.0.0.1\r\nConnection: close\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n").encode())
        sock.sendall(b"fffffffffff\r\n[1.0, 2.0]\n")
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while block := sock.recv(65536):
            raw += block
    assert raw.startswith(b"HTTP/1.1 200")
    assert raw.count(b"HTTP/1.1 ") == 1, raw
    with pytest.raises(ServerError) as excinfo:
        client.stream_status(sid)
    assert excinfo.value.status == 404


def test_an_ingest_failure_after_the_head_is_one_envelope_line(
        server, client, monkeypatch):
    sid = _session(client)

    def broken(session_id, values):
        raise RuntimeError("push failed")

    monkeypatch.setattr(server.sessions, "push", broken)
    raw = _ingest(server.port, sid, b"[1.0, 2.0]\n")
    assert raw.count(b"HTTP/1.1 ") == 1, raw
    with pytest.raises(ServerError) as excinfo:
        ReproClient._parse_ingest_response(raw)
    assert excinfo.value.envelope.kind == "internal"
    assert "push failed" in excinfo.value.envelope.message


def _read_response(sock) -> tuple[int, dict]:
    """Status and JSON body of the one response a connection carries."""
    raw = b""
    while block := sock.recv(65536):
        raw += block
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post_head(length: str) -> bytes:
    return (f"POST /v1/compress HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


@pytest.mark.parametrize("length", ["abc", "-5", "-1"])
def test_a_bad_content_length_is_a_400_before_any_read(server, length):
    # "-1" would read until the client hangs up; the client here waits
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5.0) as sock:
        sock.sendall(_post_head(length))
        status, payload = _read_response(sock)
    assert status == 400
    assert payload["type"] == "ErrorEnvelope"
    assert payload["kind"] == "validation"
    assert payload["key"] == "Content-Length"


def _wait_for_requests(server, count: int) -> None:
    """Block until the server has dispatched ``count`` requests in all."""
    deadline = time.monotonic() + 5.0
    while (server.metric_totals()["counters"].get("server.requests", 0)
           < count):
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.01)


def test_a_stalled_body_is_a_400_and_does_not_hold_up_stop():
    server = ReproServer(_config(), port=0, request_timeout_s=1.0).start()
    stopper = threading.Thread(target=server.stop)
    before = server.metric_totals()["counters"].get("server.requests", 0)
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=10.0)
    try:
        # a few of the hundred announced body bytes, then silence
        sock.sendall(_post_head("100") + b'{"type": ')
        _wait_for_requests(server, before + 1)
        started = time.monotonic()
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), (
            f"stop() still blocked after {time.monotonic() - started:.1f}s")
        # the client is still connected: the answer is waiting for it
        status, payload = _read_response(sock)
    finally:
        sock.close()
        if stopper.ident is None:
            server.stop()
        else:
            stopper.join()
    assert status == 400
    assert payload["kind"] == "validation"
    assert payload["key"] == "body"


@pytest.mark.parametrize("earlier", [0, 1], ids=["first", "second"])
def test_a_dripped_body_is_a_400_within_one_timeout(earlier):
    server = ReproServer(_config(), port=0, request_timeout_s=1.0).start()
    stop_dripping = threading.Event()
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=10.0)

    def drip() -> None:
        with contextlib.suppress(OSError):
            while not stop_dripping.wait(0.2):
                sock.sendall(b" ")

    dripper = threading.Thread(target=drip)
    try:
        for _ in range(earlier):  # a kept-alive connection's next request
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            head = b""
            while b"}" not in head:
                head += sock.recv(65536)
            assert head.startswith(b"HTTP/1.1 200")
        sock.sendall(_post_head("100"))
        started = time.monotonic()
        dripper.start()
        status, payload = _read_response(sock)
        elapsed = time.monotonic() - started
        stop_dripping.set()
        stopping = time.monotonic()
        server.stop()
        stop_s = time.monotonic() - stopping
    finally:
        stop_dripping.set()
        if dripper.ident is not None:
            dripper.join()
        sock.close()
        if server._httpd is not None:
            server.stop()
    assert status == 400
    assert payload["kind"] == "validation"
    assert payload["key"] == "body"
    assert elapsed < 1.6, f"answered after {elapsed:.2f}s"
    assert stop_s < 2.0
