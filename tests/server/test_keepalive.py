"""HTTP/1.1 persistent connections between the daemon and its client.

- One kept-alive connection carries many requests; ``server.connections``
  counts accepted connections next to ``server.requests``.
- A 2xx answer keeps the connection; a non-2xx one closes it.
- The client replaces a connection the server has closed (after an error
  answer or an idle timeout) without sending any request twice.
- ``stop()`` ends idle kept-alive connections at once, while a request
  in flight still gets its answer.
"""

import socket
import threading
import time

import pytest

from repro.api import StreamOpenRequest
from repro.core.config import EvaluationConfig
from repro.server.app import ReproServer
from repro.server.client import ReproClient, ServerError


def _config():
    return EvaluationConfig(datasets=("ETTm1",), models=("GBoost",),
                            compressors=("PMC",), error_bounds=(0.1,),
                            dataset_length=1_200, input_length=48,
                            horizon=12, eval_stride=12, deep_seeds=1,
                            simple_seeds=1, cache_dir=None, keep_going=True)


def _counters(server):
    counters = server.metric_totals()["counters"]
    return (counters.get("server.connections", 0),
            counters.get("server.requests", 0))


@pytest.fixture(scope="module")
def server():
    with ReproServer(_config(), port=0) as instance:
        yield instance


def test_one_connection_serves_a_whole_stream_session(server):
    connections, requests = _counters(server)
    with ReproClient(port=server.port) as client:
        sid = client.stream_open(StreamOpenRequest(
            method="PMC", error_bound=0.1)).session_id
        for start in range(0, 200, 20):
            client.stream_push(sid, [20.0 + 0.01 * i
                                     for i in range(start, start + 20)])
        client.stream_close(sid)
        client.healthz()
    after = _counters(server)
    assert after[1] - requests == 13
    assert after[0] - connections == 1


def _exchange(sock, request: bytes) -> bytes:
    """Send one request and read exactly one response off ``sock``."""
    sock.sendall(request)
    raw = b""
    while b"\r\n\r\n" not in raw:
        raw += sock.recv(65536)
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length")))
    while len(body) < length:
        body += sock.recv(65536)
    return head


def test_a_2xx_keeps_the_connection_and_an_error_closes_it(server):
    get = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    missing = b"GET /v1/nowhere HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5.0) as sock:
        for _ in range(3):
            head = _exchange(sock, get)
            assert head.startswith(b"HTTP/1.1 200")
            assert b"connection: close" not in head.lower()
        head = _exchange(sock, missing)
        assert head.startswith(b"HTTP/1.1 404")
        assert b"connection: close" in head.lower()
        assert sock.recv(1) == b""  # the server closed it


def test_a_connection_the_server_closed_is_replaced_without_resending(
        server):
    _, requests = _counters(server)
    calls = 0
    with ReproClient(port=server.port) as client:
        for _ in range(3):
            client.healthz()
            calls += 1
            with pytest.raises(ServerError) as excinfo:
                client.stream_status("no-such-session")  # 404: closes
            calls += 1
            assert excinfo.value.status == 404
    assert _counters(server)[1] - requests == calls


def test_an_idle_timeout_closes_the_connection_and_the_client_reconnects():
    with ReproServer(_config(), port=0, request_timeout_s=0.3) as server:
        before = _counters(server)
        with ReproClient(port=server.port) as client:
            client.healthz()
            time.sleep(0.8)  # the server drops the idle connection
            client.healthz()
            client.healthz()
        after = _counters(server)
    assert (after[0] - before[0], after[1] - before[1]) == (2, 3)


def test_stop_ends_idle_kept_alive_connections_at_once():
    server = ReproServer(_config(), port=0).start()
    connections, _ = _counters(server)
    clients = [ReproClient(port=server.port) for _ in range(4)]
    for client in clients:
        client.healthz()  # each client's connection now idles
    assert _counters(server)[0] - connections == 4
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 2.0
    for client in clients:
        client.close()


def test_stop_lets_a_request_in_flight_finish():
    server = ReproServer(_config(), port=0).start()
    _, requests = _counters(server)
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    try:
        # the request has begun: its head is in, its body is not
        body = b'{"type":"StreamOpenRequest","v":1,"method":"PMC",' \
               b'"error_bound":0.1}'
        sock.sendall(b"POST /v1/stream HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body))
        deadline = time.monotonic() + 5.0
        while _counters(server)[1] <= requests:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.2)
        sock.sendall(body)
        raw = b""
        while block := sock.recv(65536):
            raw += block
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
    finally:
        sock.close()
    head = raw.partition(b"\r\n\r\n")[0]
    assert head.startswith(b"HTTP/1.1 201")
    assert b"connection: close" in head.lower()
