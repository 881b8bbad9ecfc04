"""``repro-serve``: a batching evaluation daemon over the grid runtime.

A stdlib-only HTTP service (``http.server.ThreadingHTTPServer`` — one
thread per connection, no new dependencies) exposing the typed API:

- ``POST /v1/compress`` — one :class:`~repro.api.requests.CompressRequest`
  payload; concurrent requests are coalesced by the compress
  :class:`~repro.server.batching.MicroBatcher` into single task-graph
  submissions backed by the shared ``DiskCache``;
- ``POST /v1/forecast`` — same, for single grid cells;
- ``POST /v1/grid`` — async: validates a
  :class:`~repro.api.requests.GridRequest`, returns ``202`` with a run id
  immediately, and executes the grid on a background thread;
- ``GET /v1/runs/{id}`` — polls a grid run: status, the
  :class:`~repro.runtime.manifest.RunManifest` dict, per-cell failure
  envelopes, and the completed records once done;
- ``POST /v1/trace`` — renders a recorded run directory;
- ``GET /v1/healthz`` / ``GET /v1/metricz`` — liveness and the daemon
  process's metric totals (batch occupancy, queue waits, cache probes,
  ``server.connections`` accepted against ``server.requests`` served);
- ``POST /v1/stream`` + ``/v1/stream/{id}[/push|/close|/ingest]`` —
  live streaming sessions: per-session online compression + rolling
  forecasts, managed by the :class:`~repro.server.sessions.
  SessionManager` (admission-bounded via ``--max-sessions``, TTL/LRU
  evicted, restored from a snapshot plus a journal of pushes in the
  shared ``DiskCache``).
  ``/ingest`` speaks chunked NDJSON both ways: each request line is a
  JSON array of ticks, each response line the tagged
  ``StreamPushResponse`` it produced, interleaved as segments close —
  and a client that vanishes mid-request has its session torn down
  immediately, not at TTL.

Connections are HTTP/1.1 persistent: a 2xx answer leaves the
connection open for the client's next request, so a stream session's
pushes need no new connection each.  Every non-2xx answer, every
``/ingest`` answer and every answer once :meth:`ReproServer.stop` has
begun closes it.

Every response body is a tagged API payload (or an
:class:`~repro.api.errors.ErrorEnvelope` with a 4xx/5xx status), produced
by the same codec the CLI uses.  Every request runs inside
a ``server.request`` span, recorded in ``trace_dir``'s JSONL file when
one is configured; without one, tracing is off.  ``/v1/metricz`` reads
the daemon's live, cumulative metric registry.  Pool and queue workers
write their own metric deltas to the trace file, not to that registry;
the daemon writes its registry there at :meth:`ReproServer.stop`.

The service degrades, it does not hang: with ``keep_going`` (the
``serve`` CLI default) a failing cell answers its own requests with a
structured ``503`` envelope while batch siblings still get their
results; fail-fast configs envelope the whole batch with the
``JobError``'s kind/key.

And it sheds, it does not queue forever: the batch queues are bounded
(``--max-queue``) and async grid runs are admission-controlled
(``--max-inflight-runs``) — excess load is answered immediately with a
structured ``overloaded`` envelope as HTTP 429 plus a ``Retry-After``
header, counted in ``server.shed``.  A request whose wait expires is
cancelled server-side (it never occupies a batch slot) and answered
with a ``timeout`` envelope as HTTP 504.  Grid runs live in one ledger,
the :class:`~repro.runtime.store.RunStore`: every poll and the health
count read it, and the daemon keeps only the ids of its live runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socket
import threading
import time
import urllib.parse
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import repro.obs as obs
from repro.api.codec import decode, encode
from repro.api.errors import (NOT_FOUND, OVERLOADED, TIMEOUT, ApiError,
                              ErrorEnvelope, ValidationError,
                              envelope_from_job_error, overloaded_envelope)
from repro.api.requests import (API_VERSION, CompressRequest, ForecastRequest,
                                GridRequest, StreamCloseRequest,
                                StreamOpenRequest, StreamPushRequest,
                                TraceRequest)
from repro.api.responses import (ForecastResponse, GridSubmitResponse,
                                 HealthResponse, RunStatusResponse)
from repro.api.service import ApiService
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.obs.trace import WALL
from repro.runtime.manifest import JobError
from repro.runtime.store import RunStore
from repro.server.batching import MicroBatcher
from repro.server.sessions import SessionManager

_log = get_logger("repro.server")


class _HttpServer(ThreadingHTTPServer):
    """Thread-per-connection server that JOINS its handlers on close.

    ``ThreadingHTTPServer`` uses daemon threads, so ``server_close()``
    can return while a handler is still emitting its span — and the
    span-per-request accounting of ``tests/server/test_server.py::
    test_trace_dir_holds_one_request_span_per_served_request`` would
    race the trace file.
    Non-daemon threads + ``block_on_close`` make shutdown deterministic.

    Connections are kept alive between requests.  A kept-alive
    connection waits for its next request line inside the stdlib
    ``handle_one_request``, bounded by the request timeout like any
    socket read; a request body is bounded by one deadline for all of
    it.  So that the join does not wait out those timeouts,
    :meth:`ReproServer.stop` shuts down the socket of every connection
    that is not serving a request (idle, or its request head still
    arriving), so its read sees EOF at once, and marks the busy ones to
    close after their answer, which they still send.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        #: handlers of the open connections; the lock guards this set,
        #: ``stopping`` and each handler's ``busy``/``ended`` flags
        self.connections: set = set()
        self.lock = threading.Lock()
        self.stopping = False

    def opened(self, handler) -> None:
        obs_metrics.inc("server.connections")
        with self.lock:
            self.connections.add(handler)
            if self.stopping:
                self._end(handler)

    def closed(self, handler) -> None:
        with self.lock:
            self.connections.discard(handler)

    def request_began(self, handler) -> bool:
        """Mark a connection busy; False if it was already ended."""
        with self.lock:
            handler.busy = not handler.ended
            return handler.busy

    def request_done(self, handler) -> bool:
        """Mark a connection idle; True if it must close (stopping)."""
        with self.lock:
            handler.busy = False
            return self.stopping

    def end_idle_connections(self) -> None:
        """Begin stopping: end every idle connection now, and every busy
        one once its answer is sent."""
        with self.lock:
            self.stopping = True
            for handler in self.connections:
                if not handler.busy:
                    self._end(handler)

    @staticmethod
    def _end(handler) -> None:
        """End an idle connection: its pending read returns EOF."""
        handler.ended = True
        with contextlib.suppress(OSError):
            handler.connection.shutdown(socket.SHUT_RDWR)


#: sentinel payload: the route already wrote its own (streamed) response
_STREAMED: Any = object()

#: most bytes one body read asks for: a declared size is the client's
#: word, so it never sizes an allocation
_READ_PIECE = 1 << 16


class ReproServer:
    """The daemon: one ApiService, two micro-batchers, async grid runs."""

    def __init__(self, config=None, host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 64, request_timeout_s: float = 600.0,
                 max_queue: int | None = 1024, max_inflight_runs: int = 16,
                 retry_after_s: int = 1, max_sessions: int = 256,
                 session_ttl_s: float = 3600.0,
                 max_resident_sessions: int | None = None,
                 session_sweep_s: float = 10.0) -> None:
        # remember the ambient obs state so stop() can restore it — the
        # service configures tracing when config.trace_dir is set, and
        # start() enables metrics regardless
        self._prior_tracer = obs_trace.active()
        self._prior_registry = obs_metrics.active()

        self.service = ApiService(config)
        self.host = host
        self.port = port
        self.request_timeout_s = request_timeout_s
        # the durable run ledger: with a configured store_path, async grid
        # runs survive daemon restarts (resolvable from a fresh process);
        # without one the store is in-memory and equivalent to the old
        # process-local dict.  Runs left pending/running by a dead daemon
        # are flipped to the terminal "interrupted" state at boot.
        self.store = RunStore(self.service.config.store_path)
        interrupted = self.store.mark_interrupted()
        if interrupted:
            _log.info("marked %d run(s) from a previous daemon as "
                      "interrupted: %s", len(interrupted),
                      ", ".join(interrupted))
        self._compress_batcher = MicroBatcher(
            "compress", self.service.compress_batch, max_batch=max_batch,
            max_queue=max_queue)
        self._forecast_batcher = MicroBatcher(
            "forecast", self.service.forecast_batch, max_batch=max_batch,
            max_queue=max_queue)
        #: admission control: /v1/grid submissions over this many live
        #: (pending/running) runs are shed with 429 + Retry-After
        self.max_inflight_runs = max(1, max_inflight_runs)
        #: seconds advertised in the Retry-After header of a 429
        self.retry_after_s = max(1, int(retry_after_s))
        #: live /v1/stream sessions: admission-bounded, TTL/LRU evicted,
        #: snapshot-restored through the service's shared cache (so a
        #: daemon restart with the same cache dir keeps every session)
        self.sessions = SessionManager(cache=self.service.cache,
                                       max_sessions=max_sessions,
                                       ttl_s=session_ttl_s,
                                       max_resident=max_resident_sessions)
        self._session_sweep_s = max(0.1, float(session_sweep_s))
        #: ids of this daemon's pending/running grid runs; everything
        #: else about a run lives in ``self.store``
        self._live_runs: set[str] = set()
        self._runs_lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = WALL()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind, start serving on a background thread, return self."""
        if obs_metrics.active() is None:
            obs_metrics.enable()
        self._httpd = _HttpServer((self.host, self.port),
                                  _make_handler(self))
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self.sessions.start_sweeper(self._session_sweep_s)
        self._started_at = WALL()
        _log.info("repro-serve listening on %s:%d", self.host, self.port)
        return self

    def stop(self) -> None:
        """Shut down the listener and batchers; restore ambient obs state.

        Idle kept-alive connections end at once; a request in flight
        still gets its answer, and its connection closes after it.
        """
        if self._httpd is not None:
            self._httpd.end_idle_connections()
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.sessions.stop_sweeper()
        self._compress_batcher.close()
        self._forecast_batcher.close()
        self.store.close()
        obs.flush_metrics()
        obs_trace.install(self._prior_tracer)
        if self._prior_registry is not None:
            obs_metrics.enable(self._prior_registry)
        else:
            obs_metrics.disable()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- async grid runs -------------------------------------------------------

    def submit_grid(self, request: GridRequest) -> GridSubmitResponse:
        run_id = uuid.uuid4().hex[:12]
        cells = len(self.service.grid_requests(request))
        with self._runs_lock:
            # admission control: check + insert atomically so concurrent
            # submissions cannot both squeeze under the cap
            inflight = len(self._live_runs)
            if inflight >= self.max_inflight_runs:
                obs_metrics.inc("server.shed")
                obs_metrics.inc("server.shed.grid")
                raise ApiError(overloaded_envelope(
                    "grid",
                    f"{inflight} grid runs already in flight (cap "
                    f"{self.max_inflight_runs}); retry after backoff"),
                    status=429)
            self._live_runs.add(run_id)
        self.store.create(run_id, cells=cells, request=encode(request))
        # build the ack before starting the worker: the run may already be
        # "running" by the time this returns, but the submission itself is
        # always acknowledged as pending
        ack = GridSubmitResponse(run_id=run_id, cells=cells, status="pending")
        threading.Thread(target=self._run_grid, args=(run_id, request),
                         name=f"grid-{run_id}", daemon=True).start()
        obs_metrics.inc("server.grid.submitted")
        return ack

    def _run_grid(self, run_id: str, request: GridRequest) -> None:
        self.store.set_status(run_id, "running")
        records: tuple[ForecastResponse, ...] = ()
        try:
            responses = self.service.forecast_batch(
                self.service.grid_requests(request))
        except JobError as error:
            failures = (envelope_from_job_error(error),)
            status = "failed"
        except Exception as error:  # noqa: BLE001 — report, don't vanish
            failures = (ErrorEnvelope(kind="internal", key=run_id,
                                      message=repr(error)),)
            status = "failed"
        else:
            records = tuple(r for r in responses
                            if isinstance(r, ForecastResponse))
            failures = tuple(r for r in responses
                             if isinstance(r, ErrorEnvelope))
            status = "done"
        manifest = self.service.last_manifest
        manifest_dict = manifest.to_dict() if manifest is not None else None
        failure_payloads = [encode(f) for f in failures]
        record_payloads = [encode(r) for r in records]
        with self._runs_lock:
            # finish (one UPDATE: status and payloads together) and free
            # the admission slot in one step: a poll that reads the
            # terminal status sees the records, and a health check or
            # submission made after it sees the slot free
            try:
                self.store.finish(run_id, status, manifest=manifest_dict,
                                  failures=failure_payloads,
                                  records=record_payloads)
            finally:
                self._live_runs.discard(run_id)

    def run_status(self, run_id: str) -> RunStatusResponse:
        stored = self.store.get(run_id)
        if stored is None:
            raise ApiError(ErrorEnvelope(kind=NOT_FOUND, key=run_id,
                                         message=f"unknown run {run_id!r}"),
                           status=404)
        return RunStatusResponse(
            run_id=stored.run_id, status=stored.status,
            manifest=stored.manifest,
            failures=tuple(decode(payload, expect=ErrorEnvelope)
                           for payload in stored.failures),
            records=tuple(decode(payload, expect=ForecastResponse)
                          for payload in stored.records))

    # -- metrics ---------------------------------------------------------------

    def metric_totals(self) -> dict[str, Any]:
        """This process's metric totals: a snapshot of the live registry.

        The registry is cumulative while the daemon runs (nothing resets
        it before :meth:`stop`), so each scrape costs O(metric names),
        whatever the traffic so far.
        """
        registry = obs_metrics.active()
        if registry is None:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return registry.snapshot()

    def health(self) -> HealthResponse:
        with self._runs_lock:
            inflight = len(self._live_runs)
        runs = self.store.count()
        return HealthResponse(status="ok", version=API_VERSION,
                              uptime_s=WALL() - self._started_at, runs=runs,
                              inflight_runs=inflight)


def _make_handler(server: ReproServer) -> type[BaseHTTPRequestHandler]:
    """The request-handler class bound to one server instance."""

    class Handler(BaseHTTPRequestHandler):
        # one keep-alive-friendly protocol version; clients may still
        # close per request
        protocol_version = "HTTP/1.1"
        # buffered writes: the status line, headers and body of a response
        # leave in one send when the handler flushes after the route
        wbufsize = 1 << 16
        # socket timeout of every connection (set in ``setup``): a client
        # that stalls in its request line or headers, or an idle
        # kept-alive connection, frees the handler thread, which
        # ReproServer.stop() joins
        timeout = server.request_timeout_s
        #: between requests (False) or serving one (True)
        busy = False
        #: shut down by ReproServer.stop()
        ended = False
        #: the request declared a body that no route has read yet
        body_pending = False

        # -- connection lifecycle ------------------------------------------

        def setup(self) -> None:
            super().setup()
            self.server.opened(self)

        def finish(self) -> None:
            try:
                super().finish()
            finally:
                self.server.closed(self)

        def parse_request(self) -> bool:
            if not super().parse_request():
                return False
            # the request head has arrived: the connection is busy until
            # its answer is sent, unless stop() has already ended it (a
            # head still arriving does not hold stop() up)
            if not self.server.request_began(self):
                self.close_connection = True
                return False
            self.body_pending = bool(
                (self.headers.get("Content-Length") or "0").strip() != "0"
                or self.headers.get("Transfer-Encoding"))
            return True

        # -- plumbing ------------------------------------------------------

        def log_message(self, fmt: str, *args) -> None:
            _log.debug("%s " + fmt, self.address_string(), *args)

        def _send_payload(self, status: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode()
            # keep the connection for the next request only after a 2xx
            # whose body was read, and never once stop() has begun
            if (not 200 <= status < 300 or self.body_pending
                    or self.server.stopping):
                self.close_connection = True
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            if status == 429:
                # shed responses always tell the client when to come back
                self.send_header("Retry-After", str(server.retry_after_s))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self, length: int) -> bytes:
            """Up to ``length`` body bytes (fewer at EOF), all of them
            within one request timeout.

            A timeout per socket read alone would let a client that sends
            one byte per interval hold the handler thread, and so
            ``stop()``, for as long as it keeps sending.  Raises
            ``TimeoutError`` at the deadline.
            """
            self.body_pending = False
            deadline = time.monotonic() + server.request_timeout_s
            parts = []
            remaining = length
            try:
                while remaining:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError("request body deadline passed")
                    self.connection.settimeout(left)
                    part = self.rfile.read1(min(remaining, _READ_PIECE))
                    if not part:
                        break
                    parts.append(part)
                    remaining -= len(part)
            finally:
                self.connection.settimeout(server.request_timeout_s)
            return b"".join(parts)

        def _content_length(self) -> int:
            """The declared body length, refused unless a plain count."""
            header = (self.headers.get("Content-Length") or "0").strip()
            if not (header.isascii() and header.isdigit()):
                raise ValidationError(
                    f"invalid Content-Length {header!r} (expected a "
                    "non-negative integer)", key="Content-Length")
            return int(header)

        def _read_request(self, expect: type, optional: bool = False):
            length = self._content_length()
            try:
                raw = self._read_body(length)
            except TimeoutError:
                raise ValidationError(
                    f"request body of {length} bytes not received within "
                    f"{server.request_timeout_s}s", key="body") from None
            if not raw:
                if optional:
                    return expect().validate()
                raise ValidationError("empty request body", key="body")
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as error:
                raise ValidationError(f"invalid JSON body: {error}",
                                      key="body") from error
            return decode(payload, expect=expect).validate()

        def _dispatch(self, method: str) -> None:
            path = self.path.split("?", 1)[0].rstrip("/")
            obs_metrics.inc("server.requests")
            with obs_trace.span("server.request", method=method,
                                path=path) as span:
                try:
                    status, payload = self._route(method, path)
                except ApiError as error:
                    status, payload = error.status, encode(error.envelope)
                except Exception as error:  # noqa: BLE001 — envelope it
                    status, payload = 500, encode(ErrorEnvelope(
                        kind="internal", key=path, message=repr(error)))
                if span.enabled:
                    span.tag(status=status)
                # counted before the body is sent, so a client that reads
                # /v1/metricz after this response sees its status
                obs_metrics.inc(f"server.status.{status}")
                if payload is not _STREAMED:
                    self._send_payload(status, payload)
                # the answer leaves before the connection counts as idle:
                # stop() may end an idle connection at any moment
                self.wfile.flush()
                if self.server.request_done(self):
                    self.close_connection = True

        def do_GET(self) -> None:  # noqa: N802 — http.server contract
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 — http.server contract
            self._dispatch("POST")

        # -- routing -------------------------------------------------------

        def _route(self, method: str, path: str) -> tuple[int, dict]:
            parts = [p for p in path.split("/") if p]
            if not parts or parts[0] != "v1":
                raise ApiError(ErrorEnvelope(
                    kind=NOT_FOUND, key=path,
                    message=f"unknown path {path!r} (try /v1/healthz)"),
                    status=404)
            route = tuple(parts[1:])
            if method == "GET" and route == ("healthz",):
                return 200, encode(server.health())
            if method == "GET" and route == ("metricz",):
                return 200, server.metric_totals()
            if method == "GET" and len(route) == 2 and route[0] == "runs":
                return 200, encode(server.run_status(route[1]))
            if method == "POST" and route == ("compress",):
                return self._batched(server._compress_batcher,
                                     CompressRequest)
            if method == "POST" and route == ("forecast",):
                return self._batched(server._forecast_batcher,
                                     ForecastRequest)
            if method == "POST" and route == ("grid",):
                request = self._read_request(GridRequest)
                return 202, encode(server.submit_grid(request))
            if method == "POST" and route == ("trace",):
                request = self._read_request(TraceRequest)
                return 200, encode(server.service.trace(request))
            if route and route[0] == "stream":
                return self._route_stream(method, route, path)
            raise ApiError(ErrorEnvelope(
                kind=NOT_FOUND, key=path,
                message=f"no route for {method} {path!r}"), status=404)

        # -- streaming sessions --------------------------------------------

        def _route_stream(self, method: str, route: tuple,
                          path: str) -> tuple[int, dict]:
            sessions = server.sessions
            if method == "POST" and len(route) == 1:
                request = self._read_request(StreamOpenRequest)
                return 201, encode(sessions.open(request))
            if method == "GET" and len(route) == 2:
                return 200, encode(sessions.status(route[1]))
            if method == "POST" and len(route) == 3:
                session_id, action = route[1], route[2]
                if action == "push":
                    request = self._read_request(StreamPushRequest)
                    return 200, encode(
                        sessions.push(session_id, request.values))
                if action == "close":
                    request = self._read_request(StreamCloseRequest,
                                                 optional=True)
                    return 200, encode(
                        sessions.close(session_id, request.values))
                if action == "ingest":
                    return self._stream_ingest(session_id)
            raise ApiError(ErrorEnvelope(
                kind=NOT_FOUND, key=path,
                message=f"no route for {method} {path!r}"), status=404)

        def _stream_ingest(self, session_id: str) -> tuple[int, Any]:
            """Chunked NDJSON ingestion: ticks in, tagged payloads out.

            Request lines are JSON arrays of ticks (or tagged
            ``StreamPushRequest`` payloads); each produces one tagged
            ``StreamPushResponse`` line in the chunked response, written
            as it is computed — segments and rolling forecasts arrive
            while the client is still sending.  ``?close=1`` flushes and
            ends the session after the last line.

            The disconnect contract: once the response is streaming, a
            client that vanishes (reset, half-close, stall past the
            request timeout) gets its session DISCARDED immediately —
            the reservation never lingers until TTL.
            """
            sessions = server.sessions
            query = urllib.parse.parse_qs(
                urllib.parse.urlsplit(self.path).query)
            close_after = query.get("close", ["0"])[-1] not in ("0", "",
                                                                "false")
            # existence/expiry check BEFORE committing to a streamed
            # response: an unknown session is still a plain 404 payload
            sessions.status(session_id)
            self.close_connection = True
            status, envelope = 200, None
            try:
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Transfer-Encoding", "chunked")
                self.send_header("Connection", "close")
                self.end_headers()
                # the buffered wfile holds the headers until a flush; a
                # client gone already is a disconnect like any other
                self.wfile.flush()
                for line in self._body_lines():
                    response = sessions.push(session_id,
                                             self._ingest_values(line))
                    self._write_chunk(encode(response))
                if close_after:
                    self._write_chunk(encode(sessions.close(session_id)))
                self._write_chunk(None)
            except (OSError, ConnectionError):
                # the client is gone mid-request: tear the session down
                # NOW — stranding its state until TTL is the bug this
                # path exists to prevent
                if sessions.discard(session_id):
                    obs_metrics.inc("server.stream.disconnects")
                status = 499
            except ApiError as error:
                status, envelope = error.status, error.envelope
            except Exception as error:  # noqa: BLE001 — envelope it
                status, envelope = 500, ErrorEnvelope(
                    kind="internal", key=session_id, message=repr(error))
            if envelope is not None:
                # the 200 head is out: the body ends with one envelope
                # line, never a second status line
                with contextlib.suppress(OSError, ConnectionError):
                    self._write_chunk(encode(envelope))
                    self._write_chunk(None)
            return status, _STREAMED

        def _ingest_values(self, line: bytes):
            """The tick values one ingest line carries."""
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValidationError(f"invalid ingest line: {error}",
                                      key="body") from error
            if isinstance(payload, dict):
                request = decode(payload, expect=StreamPushRequest)
                return request.validate().values
            if isinstance(payload, list):
                request = StreamPushRequest(values=tuple(payload))
                return request.validate().values
            raise ValidationError(
                "each ingest line must be a JSON array of ticks or a "
                "StreamPushRequest payload", key="body")

        def _body_lines(self):
            """Yield NDJSON lines from the (chunked or sized) body."""
            transfer = (self.headers.get("Transfer-Encoding") or "").lower()
            buffer = b""
            if "chunked" in transfer:
                # http.server does NOT decode chunked framing; parse the
                # <hex-size>\r\n<bytes>\r\n records ourselves
                while True:
                    size_line = self.rfile.readline(65536)
                    if not size_line:
                        raise ConnectionError("EOF inside chunked body")
                    try:
                        size = int(size_line.split(b";", 1)[0].strip(), 16)
                    except ValueError:
                        raise ConnectionError(
                            f"malformed chunk size {size_line!r}") from None
                    if size == 0:
                        while True:  # drain optional trailers
                            trailer = self.rfile.readline(65536)
                            if trailer in (b"\r\n", b"\n", b""):
                                break
                        break
                    chunk = self._read_body(size)
                    if len(chunk) != size:
                        raise ConnectionError("EOF inside a chunk")
                    if self.rfile.read(2) != b"\r\n":
                        raise ConnectionError("missing chunk terminator")
                    buffer += chunk
                    while b"\n" in buffer:
                        line, buffer = buffer.split(b"\n", 1)
                        if line.strip():
                            yield line
            else:
                length = self._content_length()
                body = self._read_body(length)
                if len(body) != length:
                    raise ConnectionError("EOF inside the request body")
                for line in body.splitlines():
                    if line.strip():
                        yield line
            if buffer.strip():
                yield buffer

        def _write_chunk(self, payload: dict | None) -> None:
            """Write one chunked-encoding frame (None = the terminator)."""
            if payload is None:
                self.wfile.write(b"0\r\n\r\n")
            else:
                data = json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")).encode() + b"\n"
                self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
            self.wfile.flush()

        def _batched(self, batcher, expect: type) -> tuple[int, dict]:
            request = self._read_request(expect)
            result = batcher.submit(request,
                                    timeout=server.request_timeout_s)
            if isinstance(result, ErrorEnvelope):
                # structured degradation, never a hang: a shed request is
                # 429 (+ Retry-After), an expired wait 504, a failed cell
                # 503 — batch siblings are unaffected either way
                status = {OVERLOADED: 429, TIMEOUT: 504}.get(result.kind,
                                                             503)
                return status, encode(result)
            return 200, encode(result)

    return Handler


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the server's options on ``parser``.

    Shared between the standalone ``repro-serve`` parser and the
    ``repro-eval serve`` subparser, so both frontends accept the exact
    same flags and the subcommand no longer needs an argv intercept to
    dodge argparse's leading-optionals limitation.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--length", type=int, default=2_000,
                        help="dataset length served by default")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count of the execution backend")
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "serial", "pool", "queue"),
                        help="execution backend (auto = serial/pool by "
                             "--workers; queue needs a cache dir)")
    parser.add_argument("--queue-path", default=None,
                        help="queue-backend database (default: "
                             "queue.sqlite inside the cache dir)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="durable run store; async /v1/grid runs "
                             "survive daemon restarts (default: in-memory)")
    parser.add_argument("--cache-dir", default=".cache",
                        help="shared job cache ('' disables caching)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="micro-batch size cap")
    parser.add_argument("--max-queue", type=int, default=1024,
                        help="bounded batch-queue depth per family; "
                             "submissions over it are shed with 429 "
                             "(0 = unbounded, never shed)")
    parser.add_argument("--max-inflight-runs", type=int, default=16,
                        help="async /v1/grid admission cap; submissions "
                             "over it are shed with 429")
    parser.add_argument("--retry-after", type=int, default=1,
                        help="seconds advertised in the Retry-After "
                             "header of a 429")
    parser.add_argument("--max-sessions", type=int, default=256,
                        help="live /v1/stream session admission cap; "
                             "opens over it are shed with 429")
    parser.add_argument("--session-ttl", type=float, default=3600.0,
                        help="idle seconds before a stream session "
                             "expires (wall clock; survives restarts)")
    parser.add_argument("--max-resident-sessions", type=int, default=None,
                        help="stream sessions kept in memory; beyond it "
                             "the least-recently-used are evicted to "
                             "their cache snapshots (default: all)")
    parser.add_argument("--session-sweep", type=float, default=10.0,
                        help="seconds between TTL sweeps of idle stream "
                             "sessions")
    parser.add_argument("--request-timeout", type=float, default=600.0,
                        help="seconds a request may wait in a batch "
                             "queue before a 504, the deadline of a "
                             "request body, and how long a connection "
                             "may idle between requests")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job attempt timeout in seconds")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts per failing job")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort a whole batch on the first failing "
                             "cell (default: keep-going degradation)")
    parser.add_argument("--trace", nargs="?", const=".serve-trace",
                        default=None, metavar="DIR",
                        help="record spans/metrics into DIR/trace.jsonl")


def build_serve_parser() -> argparse.ArgumentParser:
    """The standalone ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Batching evaluation service over the repro grid "
                    "runtime (typed /v1 API)")
    add_serve_arguments(parser)
    return parser


def serve_from_args(args: argparse.Namespace) -> int:
    """Build and run the server from a parsed serve namespace."""
    from repro.core.config import EvaluationConfig

    config = EvaluationConfig(
        dataset_length=args.length,
        cache_dir=args.cache_dir or None,
        max_workers=args.workers,
        backend=args.backend,
        queue_path=args.queue_path,
        store_path=args.store,
        job_timeout=args.timeout,
        job_retries=args.retries,
        keep_going=not args.fail_fast,
        trace_dir=args.trace,
    )
    server = ReproServer(config, host=args.host, port=args.port,
                         max_batch=args.max_batch,
                         request_timeout_s=args.request_timeout,
                         max_queue=args.max_queue or None,
                         max_inflight_runs=args.max_inflight_runs,
                         retry_after_s=args.retry_after,
                         max_sessions=args.max_sessions,
                         session_ttl_s=args.session_ttl,
                         max_resident_sessions=args.max_resident_sessions,
                         session_sweep_s=args.session_sweep)
    server.start()
    print(f"repro-serve v{API_VERSION} listening on "
          f"http://{server.host}:{server.port}/v1/healthz "
          f"(Ctrl-C to stop)")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
        obs.shutdown()
    return 0


def serve(argv=None) -> int:
    """Entry point of ``repro-serve`` / ``repro-eval serve``."""
    return serve_from_args(build_serve_parser().parse_args(argv))


def main() -> int:
    return serve()



if __name__ == "__main__":
    # ``repro.server`` imports this module, so runpy would execute it a
    # second time; the package's ``__main__`` boots the daemon instead.
    raise SystemExit("repro.server.app is not runnable: boot the daemon "
                     "with `python -m repro.server` or `repro-serve`")
