"""A stdlib test client for ``repro-serve`` (``http.client``, no deps).

:class:`ReproClient` speaks the same tagged payloads as the server —
requests are encoded through :mod:`repro.api.codec` and responses decoded
back into the typed dataclasses, so a round trip through the wire is the
identity on the contract types.  Error statuses raise
:class:`ServerError` carrying the decoded
:class:`~repro.api.errors.ErrorEnvelope`, keeping failure handling
structured on both sides of the socket.

Each thread keeps one HTTP/1.1 ``HTTPConnection`` to the server and
sends all of its requests over it, so a stream session's pushes do not
open a connection each; threads never share a connection, so one client
instance may be used concurrently from many threads (the smoke test's
64-way fan-out does exactly that).  Before a connection is reused, the
client checks whether the server has closed it (it closes after any
non-2xx answer, after an idle timeout and when it stops) and reconnects
if so.  A request is never sent twice: if the exchange fails once the
request is written, the error is raised, because a push is not
idempotent.  A thread's connection is closed when the thread or the
client is gone; :meth:`ReproClient.close` (or leaving a ``with`` block)
closes all of them at once.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import weakref
from typing import Any

from repro.api.codec import decode, encode
from repro.api.errors import ErrorEnvelope
from repro.api.requests import (CompressRequest, ForecastRequest, GridRequest,
                                StreamCloseRequest, StreamOpenRequest,
                                StreamPushRequest, TraceRequest)
from repro.api.responses import (CompressResponse, ForecastResponse,
                                 GridSubmitResponse, HealthResponse,
                                 RunStatusResponse, StreamOpenResponse,
                                 StreamPushResponse, StreamStatusResponse,
                                 TraceResponse)
from repro.obs.trace import WALL


class ServerError(RuntimeError):
    """A non-2xx server reply, with the structured envelope when present."""

    def __init__(self, status: int, envelope: ErrorEnvelope | None,
                 body: str = "") -> None:
        detail = envelope.summary() if envelope is not None else body[:200]
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.envelope = envelope


class _Pooled:
    """One thread's kept-alive connection, closed when this holder is
    freed: at the thread's exit or with the client."""

    __slots__ = ("connection", "__weakref__")

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection
        weakref.finalize(self, connection.close)


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether an idle connection's socket is readable: EOF (or bytes
    nobody asked for), so it cannot carry another request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class ReproClient:
    """Typed client for one ``repro-serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        #: every thread's connection holder, for :meth:`close`
        self._pooled: "weakref.WeakSet[_Pooled]" = weakref.WeakSet()
        self._pooled_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection of every thread (none may be mid-request).

        The client stays usable: a later call reconnects.
        """
        with self._pooled_lock:
            pooled = list(self._pooled)
        for holder in pooled:
            holder.connection.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, ready for a new request."""
        holder = getattr(self._local, "pooled", None)
        if holder is None:
            holder = self._local.pooled = _Pooled(http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout))
            with self._pooled_lock:
                self._pooled.add(holder)
        connection = holder.connection
        if connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()  # the next request reconnects
        return connection

    def request_full(self, method: str, path: str,
                     payload: dict | None = None
                     ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange; returns (status, headers, raw body).

        The headers matter to backpressure-aware clients: a 429 carries
        ``Retry-After``, which the loadgen harness (and any well-behaved
        caller) honours before resubmitting shed work.
        """
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode()
                if payload is not None else None)
        headers = {"Content-Type": "application/json"} if body else {}
        connection = self._connection()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return (response.status, dict(response.getheaders()),
                    response.read())
        except BaseException:
            # the exchange's state is unknown: never reuse the connection
            connection.close()
            raise

    def request_raw(self, method: str, path: str,
                    payload: dict | None = None) -> tuple[int, bytes]:
        """One HTTP exchange; returns (status, raw body) without decoding."""
        status, _, body = self.request_full(method, path, payload)
        return status, body

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> Any:
        status, raw = self.request_raw(method, path, payload)
        text = raw.decode("utf-8", errors="replace")
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            raise ServerError(status, None, text) from None
        if not isinstance(decoded, dict):
            raise ServerError(status, None, text)
        if "type" not in decoded:
            # untyped payload (e.g. /v1/metricz): raw dict passthrough
            if 200 <= status < 300:
                return decoded
            raise ServerError(status, None, text)
        obj = decode(decoded)
        if isinstance(obj, ErrorEnvelope) or not 200 <= status < 300:
            raise ServerError(status,
                              obj if isinstance(obj, ErrorEnvelope) else None,
                              text)
        return obj

    # -- endpoints -------------------------------------------------------------

    def healthz(self) -> HealthResponse:
        return self._request("GET", "/v1/healthz")

    def metricz(self) -> dict[str, Any]:
        """Merged server metric totals (plain snapshot dict, not typed)."""
        return self._request("GET", "/v1/metricz")

    def compress(self, request: CompressRequest) -> CompressResponse:
        return self._request("POST", "/v1/compress", encode(request))

    def forecast(self, request: ForecastRequest) -> ForecastResponse:
        return self._request("POST", "/v1/forecast", encode(request))

    def grid(self, request: GridRequest) -> GridSubmitResponse:
        return self._request("POST", "/v1/grid", encode(request))

    def run_status(self, run_id: str) -> RunStatusResponse:
        return self._request("GET", f"/v1/runs/{run_id}")

    def wait_for_run(self, run_id: str, timeout: float = 600.0,
                     poll_s: float = 0.1) -> RunStatusResponse:
        """Poll ``/v1/runs/{id}`` until the run leaves pending/running."""
        deadline = WALL() + timeout
        while True:
            status = self.run_status(run_id)
            if status.status in ("done", "failed"):
                return status
            if WALL() > deadline:
                raise TimeoutError(
                    f"grid run {run_id} still {status.status!r} after "
                    f"{timeout}s")
            time.sleep(poll_s)

    def trace(self, request: TraceRequest) -> TraceResponse:
        return self._request("POST", "/v1/trace", encode(request))

    # -- streaming sessions ----------------------------------------------------

    def stream_open(self, request: StreamOpenRequest) -> StreamOpenResponse:
        """Open a live session; returns its id + effective config."""
        return self._request("POST", "/v1/stream", encode(request))

    def stream_push(self, session_id: str, values) -> StreamPushResponse:
        """Push one chunk of ticks; returns the segments it closed."""
        request = StreamPushRequest(values=tuple(float(v) for v in values))
        return self._request("POST", f"/v1/stream/{session_id}/push",
                             encode(request))

    def stream_close(self, session_id: str,
                     values=()) -> StreamPushResponse:
        """Flush and end a session (optionally with the final ticks)."""
        request = StreamCloseRequest(values=tuple(float(v) for v in values))
        return self._request("POST", f"/v1/stream/{session_id}/close",
                             encode(request))

    def stream_status(self, session_id: str) -> StreamStatusResponse:
        return self._request("GET", f"/v1/stream/{session_id}")

    def stream_ingest(self, session_id: str, chunks,
                      close: bool = False) -> list[StreamPushResponse]:
        """Drive ``/v1/stream/{id}/ingest`` over one chunked request.

        Each chunk (a sequence of ticks) becomes one NDJSON line in a
        chunked-transfer request; the server answers with one tagged
        ``StreamPushResponse`` line per chunk, interleaved as they are
        processed.  ``http.client`` cannot read a response while a
        chunked request is still being written, so this helper speaks
        raw sockets: it writes every line, terminates the request, then
        drains the streamed response — safe because the server's events
        accumulate in the socket buffer meanwhile (loopback-sized
        volumes; a firehose client should read concurrently).
        """
        path = f"/v1/stream/{session_id}/ingest"
        if close:
            path += "?close=1"
        head = (f"POST {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as sock:
            sock.sendall(head.encode())
            for chunk in chunks:
                data = (json.dumps([float(v) for v in chunk])
                        + "\n").encode()
                sock.sendall(b"%x\r\n%s\r\n" % (len(data), data))
            sock.sendall(b"0\r\n\r\n")
            raw = b""
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                raw += block
        return self._parse_ingest_response(raw)

    @staticmethod
    def _parse_ingest_response(raw: bytes) -> list[StreamPushResponse]:
        """Decode a chunked NDJSON ingest response into typed payloads."""
        header, _, body = raw.partition(b"\r\n\r\n")
        status_line = header.split(b"\r\n", 1)[0].decode("latin-1")
        status = int(status_line.split()[1]) if len(
            status_line.split()) > 1 else 0
        if b"chunked" in header.lower():
            text = b""
            while body:
                size_line, _, body = body.partition(b"\r\n")
                try:
                    size = int(size_line.split(b";", 1)[0].strip(), 16)
                except ValueError:
                    break
                if size == 0:
                    break
                text += body[:size]
                body = body[size + 2:]  # skip the chunk's CRLF
        else:
            text = body
        events: list[StreamPushResponse] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = decode(json.loads(line))
            if isinstance(obj, ErrorEnvelope):
                raise ServerError(status if status >= 400 else 500, obj,
                                  line.decode("utf-8", errors="replace"))
            events.append(obj)
        if status >= 400:
            raise ServerError(status, None, raw[:200].decode(
                "utf-8", errors="replace"))
        return events
