"""Per-session state for live ``/v1/stream`` ingestion.

A stream session owns one :class:`~repro.compression.streaming.
OnlineCompressor` and one :class:`~repro.forecasting.rolling.
RollingForecaster`: ticks pushed into the session close error-bounded
segments as the encoder's window breaks, the closed segments'
*reconstructed* values feed the forecaster (the paper's
forecasting-on-decompressed-data question, asked live), and the rolling
forecast refreshes every ``forecast_every`` closed segments.

The :class:`SessionManager` is the server-side registry:

- **admission** (``max_sessions``): opening a session over the cap is
  shed immediately through the ``overloaded`` path — HTTP 429 plus
  ``Retry-After``, never a hang;
- **snapshot + journal**: with a cache directory, ``open`` writes the
  session's full state (open-window floats, forecaster state, counters)
  as one columnar :class:`~repro.core.cache.DiskCache` entry, and each
  push appends one record to the entry's journal: the push's start tick,
  its ``last_touch`` and its ticks as float64.  A push writes a fresh
  snapshot instead (and deletes the journal) when its record would take
  the journal past the last snapshot's size, so a restore never replays
  more bytes than one snapshot holds — a rule, not a tuning constant.
  Restore loads the snapshot and replays the journal through
  :meth:`StreamSession.absorb` and :meth:`StreamSession.maybe_forecast`,
  the deterministic path the live pushes took, so LRU eviction and a
  daemon restart (even ``kill -9``) stay invisible to the client: the
  restored encoder closes byte-identical segments (pinned by the
  round-trip tests).  Records that start below the snapshot's ``ticks``
  are skipped (a crash between a snapshot write and the journal's
  deletion leaves them).  A short final record is a torn append: it is
  dropped and cut from the file.  A complete record with a bad checksum,
  or one that does not start where the previous one ended, is
  corruption: restore raises :class:`~repro.core.cache.CorruptJournal`,
  the session is discarded and answered as gone — never resumed with
  acknowledged ticks missing.  A memory-only cache (``DiskCache(None)``)
  keeps the full snapshot of every push in memory instead;
- **LRU eviction** (``max_resident``): beyond the residency cap the
  least-recently-touched idle session object is dropped (its snapshot
  and journal already hold it).  Its last snapshot value stays in the
  cache's memory layer only while it fits that layer's byte budget
  (:data:`~repro.core.cache.MEMORY_BYTES`); a restore after that reads
  the file.  Sessions with an in-flight request are never evicted (a
  reference count guards them, so one session object per id exists at
  any time);
- **TTL expiry**: a session idle past its TTL is discarded entirely —
  memory, snapshot, journal and admission slot — by the background
  sweeper or lazily on access.  TTL uses wall-clock time
  (``time.time``), not the monotonic span clock, so expiry deadlines
  survive a daemon restart.

Everything is observable: ``server.stream.resident`` / ``.live`` gauges
and ``server.stream.opened/closed/ticks/segments/forecasts/evicted/
restored/expired/discarded/corrupt`` counters flow into ``/v1/metricz``.
"""

from __future__ import annotations

import struct
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.api.errors import (NOT_FOUND, ApiError, ErrorEnvelope,
                              overloaded_envelope)
from repro.api.requests import StreamOpenRequest
from repro.api.responses import (StreamOpenResponse, StreamPushResponse,
                                 StreamSegment, StreamStatusResponse)
from repro.compression.registry import STREAMING_METHODS
from repro.compression.streaming import (STREAMING_ALGORITHMS,
                                         restore_compressor)
from repro.core.cache import JOURNAL_FRAME, CorruptJournal, DiskCache
from repro.forecasting.rolling import STREAM_MODELS, restore_forecaster
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.registry import compressor_info

_log = get_logger("repro.server.sessions")

#: wire method name -> streaming encoder class, derived from the plugin
#: registry's streaming capability metadata
_ENCODERS = {name: STREAMING_ALGORITHMS[compressor_info(name).streaming]
             for name in STREAMING_METHODS}

#: cache-key namespace of session snapshots
_CACHE_PREFIX = "stream-session/"

#: the head of a journal record: start tick, last_touch; float64 ticks follow
_RECORD_HEAD = struct.Struct("<Qd")


def _cache_key(session_id: str) -> str:
    return f"{_CACHE_PREFIX}{session_id}"


def _not_found(session_id: str, message: str) -> ApiError:
    return ApiError(ErrorEnvelope(kind=NOT_FOUND, key=session_id,
                                  message=message), status=404)


@dataclass
class StreamSession:
    """One live session: encoder + forecaster + counters."""

    session_id: str
    method: str
    compressor: object
    forecaster: object
    horizon: int
    forecast_every: int
    ttl_s: float
    created_at: float
    last_touch: float
    ticks: int = 0
    segments_total: int = 0
    #: closed segments since the last forecast refresh
    segments_since_forecast: int = 0
    forecast: tuple[float, ...] = ()
    forecast_at: int | None = None
    closed: bool = False
    #: requests currently operating on this session (guards eviction)
    inflight: int = 0
    #: serializes mutations; pushes to one session are ordered
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: bytes of the last snapshot written, and of the journal since it
    snapshot_bytes: int = 0
    journal_bytes: int = 0

    def absorb(self, values) -> list:
        """Feed ticks; returns the segments that closed, updating the
        forecaster from their reconstructed values."""
        closed = self.compressor.extend(values) if len(values) else []
        self.ticks += len(values)
        self._consume(closed)
        return closed

    def finish(self, values) -> list:
        """Final ticks + flush; returns the segments that closed."""
        closed = self.compressor.extend(values) if len(values) else []
        self.ticks += len(values)
        closed += self.compressor.flush()
        self._consume(closed)
        self.closed = True
        return closed

    def _consume(self, closed: list) -> None:
        for segment in closed:
            self.forecaster.update(segment.reconstruct())
        self.segments_total += len(closed)
        self.segments_since_forecast += len(closed)

    def maybe_forecast(self, force: bool = False) -> bool:
        """Refresh the rolling forecast when it is due; True if refreshed."""
        if self.forecast_every <= 0:
            return False
        due = self.segments_since_forecast >= self.forecast_every
        if not (due or (force and self.segments_total)):
            return False
        values = self.forecaster.forecast(self.horizon)
        if not values:
            return False
        self.forecast = values
        self.forecast_at = self.segments_total
        self.segments_since_forecast = 0
        return True

    def snapshot(self) -> dict:
        """The session's full state as one JSON-safe / columnar value."""
        return {
            "session_id": self.session_id,
            "method": self.method,
            "horizon": self.horizon,
            "forecast_every": self.forecast_every,
            "ttl_s": self.ttl_s,
            "created_at": self.created_at,
            "last_touch": self.last_touch,
            "ticks": self.ticks,
            "segments_total": self.segments_total,
            "segments_since_forecast": self.segments_since_forecast,
            "forecast": list(self.forecast),
            "forecast_at": self.forecast_at,
            "closed": self.closed,
            "compressor": self.compressor.snapshot(),
            "forecaster": self.forecaster.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "StreamSession":
        forecast_at = snapshot["forecast_at"]
        return cls(
            session_id=str(snapshot["session_id"]),
            method=str(snapshot["method"]),
            compressor=restore_compressor(snapshot["compressor"]),
            forecaster=restore_forecaster(snapshot["forecaster"]),
            horizon=int(snapshot["horizon"]),
            forecast_every=int(snapshot["forecast_every"]),
            ttl_s=float(snapshot["ttl_s"]),
            created_at=float(snapshot["created_at"]),
            last_touch=float(snapshot["last_touch"]),
            ticks=int(snapshot["ticks"]),
            segments_total=int(snapshot["segments_total"]),
            segments_since_forecast=int(snapshot["segments_since_forecast"]),
            forecast=tuple(float(v) for v in snapshot["forecast"]),
            forecast_at=None if forecast_at is None else int(forecast_at),
            closed=bool(snapshot["closed"]),
        )

    def journal_record(self, values) -> bytes:
        """The journal payload of a push of ``values`` just absorbed."""
        return (_RECORD_HEAD.pack(self.ticks - len(values), self.last_touch)
                + np.asarray(values, dtype="<f8").tobytes())

    @classmethod
    def restore(cls, snapshot: dict, records) -> "StreamSession":
        """Rebuild a session from its snapshot and journal payloads.

        Each record is replayed as its push ran: ``absorb`` then
        ``maybe_forecast``.  Records starting below the snapshot's
        ``ticks`` are already in it and skipped; any other record must
        start at the tick the session has reached, else
        :class:`CorruptJournal`.
        """
        session = cls.from_snapshot(snapshot)
        covered = session.ticks
        for record in records:
            ticks_bytes = len(record) - _RECORD_HEAD.size
            if ticks_bytes < 0 or ticks_bytes % 8:
                raise CorruptJournal(
                    f"journal record of {len(record)} bytes is not a head "
                    "plus float64 ticks")
            start, last_touch = _RECORD_HEAD.unpack_from(record)
            values = np.frombuffer(record, dtype="<f8",
                                   offset=_RECORD_HEAD.size).tolist()
            if start < covered:
                if start + len(values) > covered:
                    raise CorruptJournal(
                        f"journal record at tick {start} overlaps the "
                        f"snapshot's {covered} ticks")
                continue
            if start != session.ticks:
                raise CorruptJournal(
                    f"journal record starts at tick {start}, expected "
                    f"{session.ticks}")
            session.absorb(values)
            session.maybe_forecast()
            session.last_touch = last_touch
        return session

    def open_response(self) -> StreamOpenResponse:
        return StreamOpenResponse(
            session_id=self.session_id, method=self.method,
            error_bound=self.compressor.error_bound,
            max_segment_length=self.compressor.max_segment_length,
            forecaster=self.forecaster.name, horizon=self.horizon,
            forecast_every=self.forecast_every, ttl_s=self.ttl_s)

    def push_response(self, pushed: int, closed: list,
                      refreshed: bool) -> StreamPushResponse:
        return StreamPushResponse(
            session_id=self.session_id, pushed=pushed, ticks=self.ticks,
            segments=tuple(StreamSegment.from_segment(s) for s in closed),
            segments_total=self.segments_total,
            forecast=self.forecast if refreshed else (),
            forecast_at=self.forecast_at, closed=self.closed)


class SessionManager:
    """The server's session registry: admission, eviction, expiry.

    ``clock`` is injectable for tests; it must be a wall clock (restart-
    surviving TTLs are part of the contract).
    """

    def __init__(self, cache: DiskCache, max_sessions: int = 256,
                 ttl_s: float = 3600.0, max_resident: int | None = None,
                 clock=time.time) -> None:
        self.cache = cache
        self.max_sessions = max(1, max_sessions)
        self.default_ttl_s = float(ttl_s)
        #: resident cap; None = every live session stays in memory
        self.max_resident = max_resident if max_resident is None \
            else max(1, max_resident)
        self._clock = clock
        self._lock = threading.Lock()
        #: resident sessions, least-recently-touched first
        self._sessions: "OrderedDict[str, StreamSession]" = OrderedDict()
        #: admission ledger over ALL live sessions (resident + evicted):
        #: sid -> {"last_touch", "ttl_s"}, updated on every checkin
        self._index: dict[str, dict] = {}
        self._sweeper: threading.Thread | None = None
        self._sweep_stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def open(self, request: StreamOpenRequest) -> StreamOpenResponse:
        """Create a session, or shed with 429 at the admission cap."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            live = len(self._index)
            if live >= self.max_sessions:
                obs_metrics.inc("server.shed")
                obs_metrics.inc("server.shed.stream")
                raise ApiError(overloaded_envelope(
                    "stream",
                    f"{live} stream sessions already live (cap "
                    f"{self.max_sessions}); retry after backoff"),
                    status=429)
            session_id = uuid.uuid4().hex[:16]
            ttl_s = (self.default_ttl_s if request.ttl_s is None
                     else float(request.ttl_s))
            session = StreamSession(
                session_id=session_id, method=request.method,
                compressor=_ENCODERS[request.method](
                    request.error_bound, request.max_segment_length),
                forecaster=STREAM_MODELS[request.forecaster](),
                horizon=request.horizon,
                forecast_every=request.forecast_every,
                ttl_s=ttl_s, created_at=now, last_touch=now)
            self._sessions[session_id] = session
            self._index[session_id] = {"last_touch": now, "ttl_s": ttl_s}
            self._persist(session)
            self._evict_overflow_locked()
            self._note_gauges_locked()
        obs_metrics.inc("server.stream.opened")
        return session.open_response()

    def push(self, session_id: str, values) -> StreamPushResponse:
        """Feed one chunk; returns the segments it closed (+ forecast)."""
        session = self._checkout(session_id)
        try:
            with session.lock:
                closed = session.absorb(values)
                refreshed = session.maybe_forecast()
                self._persist(session, values)
                response = session.push_response(len(values), closed,
                                                 refreshed)
        finally:
            self._checkin(session)
        obs_metrics.inc("server.stream.ticks", len(values))
        obs_metrics.inc("server.stream.segments", len(closed))
        if refreshed:
            obs_metrics.inc("server.stream.forecasts")
        return response

    def close(self, session_id: str, values=()) -> StreamPushResponse:
        """Final ticks + flush; the session is gone once this returns."""
        session = self._checkout(session_id)
        try:
            with session.lock:
                closed = session.finish(values)
                refreshed = session.maybe_forecast(force=True)
                response = session.push_response(len(values), closed,
                                                 refreshed)
        finally:
            self._checkin(session)
        self.discard(session_id, reason="closed")
        obs_metrics.inc("server.stream.ticks", len(values))
        obs_metrics.inc("server.stream.segments", len(closed))
        return response

    def status(self, session_id: str) -> StreamStatusResponse:
        """Inspect a session without touching its TTL clock."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            session = self._sessions.get(session_id)
            resident = session is not None
            if session is None:
                session = self._restore_locked(session_id, now,
                                               resident=False)
        return StreamStatusResponse(
            session_id=session_id, ticks=session.ticks,
            segments_total=session.segments_total, resident=resident,
            idle_s=max(0.0, now - session.last_touch),
            method=session.method, forecaster=session.forecaster.name,
            horizon=session.horizon)

    def discard(self, session_id: str, reason: str = "discarded") -> bool:
        """Drop a session entirely — memory, snapshot, admission slot.

        The immediate-teardown path for closed sessions, expired TTLs,
        and clients that vanish mid-request; True when the session
        existed.  Never blocks on the session lock: the admission slot
        and snapshot go first, so a racing request finishes against an
        orphan object and cannot resurrect the session.
        """
        with self._lock:
            known = self._index.pop(session_id, None) is not None
            resident = self._sessions.pop(session_id, None) is not None
            self.cache.remove(_cache_key(session_id))
            self._note_gauges_locked()
        if known or resident:
            obs_metrics.inc(f"server.stream.{reason}")
            return True
        return False

    def sweep(self) -> int:
        """Expire idle sessions; returns how many were discarded."""
        with self._lock:
            return self._expire_locked(self._clock())

    def live(self) -> int:
        """Live sessions (resident + snapshotted) under admission."""
        with self._lock:
            return len(self._index)

    def resident(self) -> int:
        """Sessions currently held in memory."""
        with self._lock:
            return len(self._sessions)

    # -- the background sweeper ------------------------------------------------

    def start_sweeper(self, interval_s: float = 10.0) -> None:
        """Run :meth:`sweep` periodically on a daemon thread."""
        if self._sweeper is not None:
            return
        self._sweep_stop.clear()

        def loop() -> None:
            while not self._sweep_stop.wait(interval_s):
                try:
                    self.sweep()
                except Exception:  # noqa: BLE001 — keep sweeping
                    _log.exception("stream session sweep failed")

        self._sweeper = threading.Thread(target=loop, name="stream-sweeper",
                                         daemon=True)
        self._sweeper.start()

    def stop_sweeper(self) -> None:
        if self._sweeper is None:
            return
        self._sweep_stop.set()
        self._sweeper.join(timeout=5.0)
        self._sweeper = None

    # -- internals -------------------------------------------------------------

    def _checkout(self, session_id: str) -> StreamSession:
        """Pin a session for one request (restoring it if evicted)."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            session = self._sessions.get(session_id)
            if session is None:
                session = self._restore_locked(session_id, now,
                                               resident=True)
            if session.closed:
                raise _not_found(session_id,
                                 f"stream session {session_id} is closed")
            session.inflight += 1
            self._sessions.move_to_end(session_id)
        return session

    def _checkin(self, session: StreamSession) -> None:
        """Release a pinned session, touching its TTL clock."""
        now = self._clock()
        with self._lock:
            session.inflight -= 1
            session.last_touch = now
            entry = self._index.get(session.session_id)
            if entry is not None:
                entry["last_touch"] = now
            self._evict_overflow_locked()
            self._note_gauges_locked()

    def _restore_locked(self, session_id: str, now: float,
                        resident: bool) -> StreamSession:
        """Rebuild an evicted (or pre-restart) session from its snapshot
        and journal."""
        key = _cache_key(session_id)
        snapshot = self.cache.get(key)
        if not isinstance(snapshot, dict):
            # a journal without its snapshot can never be replayed
            self.cache.remove_journal(key)
            raise _not_found(session_id,
                             f"unknown stream session {session_id!r}")
        try:
            records, journal_bytes = self.cache.journal(key)
            session = StreamSession.restore(snapshot, records)
        except CorruptJournal as error:
            # never resume with acknowledged ticks missing
            self._index.pop(session_id, None)
            self.cache.remove(key)
            obs_metrics.inc("server.stream.corrupt")
            raise _not_found(session_id, f"stream session {session_id} "
                             f"is lost: {error}") from None
        if session.closed or now - session.last_touch > session.ttl_s:
            # a stale snapshot must not resurrect a finished session
            self._index.pop(session_id, None)
            self.cache.remove(key)
            obs_metrics.inc("server.stream.expired")
            raise _not_found(
                session_id, f"stream session {session_id} expired")
        # the restored-from snapshot's size is not known here: the first
        # push writes a fresh one that folds the replayed journal in
        session.journal_bytes = journal_bytes
        if resident:
            self._sessions[session_id] = session
        # a post-restart restore re-enters the admission ledger
        self._index.setdefault(session_id, {"last_touch": session.last_touch,
                                            "ttl_s": session.ttl_s})
        obs_metrics.inc("server.stream.restored")
        return session

    def _persist(self, session: StreamSession, pushed=None) -> None:
        """Write-through state (under the session's lock): a journal
        record for the ticks just ``pushed``, or a full snapshot when
        that record would take the journal past the last snapshot.

        Skipped once the session has left the admission ledger: a push
        racing a discard (client vanished between chunks) must not
        resurrect the session by re-writing its state.
        """
        if session.closed or session.session_id not in self._index:
            return
        session.last_touch = self._clock()
        key = _cache_key(session.session_id)
        if pushed is not None and self.cache.directory is not None:
            record = session.journal_record(pushed)
            if (session.journal_bytes + JOURNAL_FRAME.size + len(record)
                    <= session.snapshot_bytes):
                session.journal_bytes += self.cache.append(key, record)
                return
        session.snapshot_bytes = self.cache.put(key, session.snapshot())
        if session.journal_bytes:
            self.cache.remove_journal(key)
            session.journal_bytes = 0

    def _expire_locked(self, now: float) -> int:
        """Discard every session idle past its TTL (manager lock held)."""
        expired = [sid for sid, entry in self._index.items()
                   if now - entry["last_touch"] > entry["ttl_s"]]
        discarded = 0
        for sid in expired:
            session = self._sessions.get(sid)
            if session is not None and session.inflight:
                continue  # pinned by a request; its checkin re-touches
            del self._index[sid]
            self._sessions.pop(sid, None)
            self.cache.remove(_cache_key(sid))
            obs_metrics.inc("server.stream.expired")
            discarded += 1
        if discarded:
            self._note_gauges_locked()
        return discarded

    def _evict_overflow_locked(self) -> None:
        """LRU-evict resident sessions beyond the residency cap.

        The write-through snapshot already holds the session's state,
        so eviction is just forgetting the object; the cache's memory
        layer keeps the snapshot only within its own byte budget.
        Pinned sessions (in-flight requests) are skipped — at most one
        object per session id ever exists.
        """
        if self.max_resident is None:
            return
        for sid in list(self._sessions):
            if len(self._sessions) <= self.max_resident:
                break
            session = self._sessions[sid]
            if session.inflight:
                continue
            del self._sessions[sid]
            obs_metrics.inc("server.stream.evicted")

    def _note_gauges_locked(self) -> None:
        obs_metrics.set_gauge("server.stream.resident", len(self._sessions))
        obs_metrics.set_gauge("server.stream.live", len(self._index))
