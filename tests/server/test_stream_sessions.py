"""Session lifecycle: admission, eviction, snapshot/restore, teardown.

The invariants under test, at both the :class:`SessionManager` unit
level (injectable clock, in-memory cache) and over real sockets:

- eviction and daemon restart are **invisible**: a session evicted
  mid-open-segment (or surviving a restart through ``--store``-style
  disk snapshots) continues byte-for-byte where it left off;
- admission is bounded: ``max_sessions`` sheds opens with a structured
  429 + ``Retry-After``, never a hang;
- TTL expiry returns the manager to empty — lazily on access and via
  the background sweeper — and expiry deadlines are wall-clock, so they
  survive a restart;
- a client that vanishes mid-chunked-ingest tears its session down
  immediately (the disconnect path), not at TTL;
- concurrent sessions never bleed into each other.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import StreamOpenRequest, encode
from repro.api.errors import ApiError
from repro.compression.streaming import (OnlinePMC, reconstruct,
                                         segments_payload)
from repro.core.cache import DiskCache
from repro.core.config import EvaluationConfig
from repro.server.app import ReproServer
from repro.server.client import ReproClient, ServerError
from repro.server.sessions import SessionManager

# -- unit level: SessionManager with an injectable clock ---------------------


class FakeClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now


def _open(manager, **overrides):
    request = dict(method="PMC", error_bound=0.1, forecast_every=0)
    request.update(overrides)
    return manager.open(StreamOpenRequest(**request))


def _local(values, error_bound=0.1):
    encoder = OnlinePMC(error_bound)
    return encoder.extend(values) + encoder.flush()


def test_lifecycle_counts_return_to_zero():
    manager = SessionManager(cache=DiskCache(None))
    opened = _open(manager)
    assert manager.live() == manager.resident() == 1
    response = manager.push(opened.session_id, [1.0, 1.0, 9.0])
    assert response.ticks == 3
    final = manager.close(opened.session_id)
    assert final.closed
    assert manager.live() == manager.resident() == 0
    with pytest.raises(ApiError) as excinfo:
        manager.push(opened.session_id, [1.0])
    assert excinfo.value.status == 404


def test_admission_cap_sheds_with_429():
    manager = SessionManager(cache=DiskCache(None), max_sessions=2)
    _open(manager)
    _open(manager)
    with pytest.raises(ApiError) as excinfo:
        _open(manager)
    assert excinfo.value.status == 429
    assert excinfo.value.envelope.kind == "overloaded"


def test_evicted_sessions_still_count_against_admission():
    # the admission ledger spans resident + snapshotted sessions: a
    # resident cap of 1 must not widen the admission cap of 2
    manager = SessionManager(cache=DiskCache(None), max_sessions=2,
                             max_resident=1)
    _open(manager)
    _open(manager)
    assert manager.resident() == 1 and manager.live() == 2
    with pytest.raises(ApiError) as excinfo:
        _open(manager)
    assert excinfo.value.status == 429


def test_ttl_expiry_via_sweep_and_lazy_access():
    clock = FakeClock()
    manager = SessionManager(cache=DiskCache(None), ttl_s=10.0, clock=clock)
    lazy = _open(manager)
    swept = _open(manager)
    clock.now += 11.0
    assert manager.sweep() == 2
    assert manager.live() == manager.resident() == 0
    for sid in (lazy.session_id, swept.session_id):
        with pytest.raises(ApiError) as excinfo:
            manager.push(sid, [1.0])
        assert excinfo.value.status == 404


def test_per_session_ttl_overrides_default():
    clock = FakeClock()
    manager = SessionManager(cache=DiskCache(None), ttl_s=1_000.0, clock=clock)
    short = _open(manager, ttl_s=5.0)
    long = _open(manager)
    clock.now += 6.0
    assert manager.sweep() == 1
    assert manager.live() == 1
    with pytest.raises(ApiError):
        manager.status(short.session_id)
    assert manager.status(long.session_id).session_id == long.session_id


def test_eviction_mid_segment_is_byte_invisible():
    rng = np.random.default_rng(21)
    values = (20 + rng.normal(0, 1, 400).cumsum() * 0.1).tolist()
    manager = SessionManager(cache=DiskCache(None), max_resident=1)
    a = _open(manager)
    b = _open(manager)  # evicts a
    segments = {a.session_id: [], b.session_id: []}
    # alternating pushes: every access restores one session and evicts
    # the other, always with an open (mid-segment) encoder window
    for start in range(0, len(values), 23):
        chunk = values[start:start + 23]
        for sid in segments:
            segments[sid] += manager.push(sid, chunk).segments
    for sid in segments:
        segments[sid] += manager.close(sid).segments
        streamed = [s.to_segment() for s in segments[sid]]
        assert segments_payload(streamed) == \
            segments_payload(_local(values))
    assert manager.live() == 0


def test_eviction_disabled_without_cache():
    manager = SessionManager(cache=None, max_resident=1)
    _open(manager)
    _open(manager)
    assert manager.resident() == 2  # nowhere to snapshot: nothing evicted


def test_restart_restores_from_disk(tmp_path):
    rng = np.random.default_rng(22)
    values = (20 + rng.normal(0, 1, 300).cumsum() * 0.1).tolist()
    first = SessionManager(cache=DiskCache(str(tmp_path)))
    opened = _open(first)
    collected = list(first.push(opened.session_id, values[:170]).segments)
    # a fresh manager over the same cache directory = a daemon restart
    second = SessionManager(cache=DiskCache(str(tmp_path)))
    assert second.resident() == 0
    collected += second.push(opened.session_id, values[170:]).segments
    collected += second.close(opened.session_id).segments
    streamed = [s.to_segment() for s in collected]
    assert segments_payload(streamed) == segments_payload(_local(values))
    status_error = pytest.raises(ApiError, second.status, opened.session_id)
    assert status_error.value.status == 404  # closed sessions stay gone


def test_ttl_is_wall_clock_across_restart(tmp_path):
    clock = FakeClock(now=5_000.0)
    first = SessionManager(cache=DiskCache(str(tmp_path)), ttl_s=10.0,
                           clock=clock)
    opened = _open(first)
    # restart lands AFTER the deadline: the snapshot must not resurrect
    late = FakeClock(now=5_020.0)
    second = SessionManager(cache=DiskCache(str(tmp_path)), ttl_s=10.0,
                            clock=late)
    with pytest.raises(ApiError) as excinfo:
        second.push(opened.session_id, [1.0])
    assert excinfo.value.status == 404
    assert second.live() == 0


def test_discard_race_cannot_resurrect_session():
    # a push racing a discard: the discard wins and the late persist is
    # dropped, so the snapshot cannot re-appear after teardown
    cache = DiskCache(None)
    manager = SessionManager(cache=cache)
    opened = _open(manager)
    session = manager._checkout(opened.session_id)
    manager.discard(opened.session_id)
    with session.lock:
        session.absorb([1.0, 2.0])
        manager._persist(session)  # must be a no-op: session left the ledger
    manager._checkin(session)
    assert manager.live() == 0
    assert not cache.contains(f"stream-session/{opened.session_id}")
    with pytest.raises(ApiError):
        manager.status(opened.session_id)


def test_rolling_forecast_refreshes_every_k_segments():
    manager = SessionManager(cache=DiskCache(None))
    opened = _open(manager, forecast_every=2, horizon=3,
                   forecaster="Naive", error_bound=0.01)
    first = manager.push(opened.session_id, [1.0, 1.0, 5.0, 5.0, 9.0])
    # two segments closed ([1,1], [5,5]) -> forecast due, naive = 5.0
    assert first.segments_total == 2
    assert first.forecast == (5.0, 5.0, 5.0)
    assert first.forecast_at == 2
    second = manager.push(opened.session_id, [9.0])
    assert second.forecast == ()  # not refreshed this push
    final = manager.close(opened.session_id)
    assert final.closed and final.forecast == (9.0, 9.0, 9.0)


# -- socket level: the live daemon ------------------------------------------


def _config(**overrides):
    base = dict(datasets=("ETTm1",), models=("GBoost",),
                compressors=("PMC", "SWING"), error_bounds=(0.1,),
                dataset_length=1_200, input_length=48, horizon=12,
                eval_stride=12, deep_seeds=1, simple_seeds=1,
                cache_dir=None, keep_going=True)
    base.update(overrides)
    return EvaluationConfig(**base)


def test_http_admission_cap_answers_429_with_retry_after():
    with ReproServer(_config(), port=0, max_sessions=1) as server:
        client = ReproClient(port=server.port)
        client.stream_open(StreamOpenRequest(method="PMC", error_bound=0.1))
        status, headers, _ = client.request_full(
            "POST", "/v1/stream",
            encode(StreamOpenRequest(method="PMC", error_bound=0.1)))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1


def test_http_eviction_and_restore_are_invisible():
    rng = np.random.default_rng(23)
    values = (20 + rng.normal(0, 1, 200).cumsum() * 0.1).tolist()
    with ReproServer(_config(), port=0, max_resident_sessions=1) as server:
        client = ReproClient(port=server.port)
        sids = [client.stream_open(StreamOpenRequest(
            method="PMC", error_bound=0.1)).session_id for _ in range(2)]
        collected = {sid: [] for sid in sids}
        for start in range(0, len(values), 31):
            for sid in sids:  # ping-pong forces evict + restore each time
                collected[sid] += client.stream_push(
                    sid, values[start:start + 31]).segments
        for sid in sids:
            collected[sid] += client.stream_close(sid).segments
            streamed = [s.to_segment() for s in collected[sid]]
            assert segments_payload(streamed) == \
                segments_payload(_local(values))
        counters = client.metricz()["counters"]
        assert counters["server.stream.evicted"] >= 1
        assert counters["server.stream.restored"] >= 1


def test_http_restart_is_invisible(tmp_path):
    rng = np.random.default_rng(24)
    values = (20 + rng.normal(0, 1, 200).cumsum() * 0.1).tolist()
    config = _config(cache_dir=str(tmp_path / "cache"))
    with ReproServer(config, port=0) as server:
        client = ReproClient(port=server.port)
        sid = client.stream_open(StreamOpenRequest(
            method="SWING", error_bound=0.1)).session_id
        collected = list(client.stream_push(sid, values[:120]).segments)
    with ReproServer(config, port=0) as server:
        client = ReproClient(port=server.port)
        assert client.stream_status(sid).resident is False
        collected += client.stream_push(sid, values[120:]).segments
        collected += client.stream_close(sid).segments
    from repro.compression.streaming import OnlineSwing
    encoder = OnlineSwing(0.1)
    expected = encoder.extend(values) + encoder.flush()
    streamed = [s.to_segment() for s in collected]
    assert segments_payload(streamed) == segments_payload(expected)


def test_disconnect_mid_ingest_tears_down_immediately():
    # TTL is an hour: the only way this session disappears quickly is
    # the disconnect teardown path
    with ReproServer(_config(), port=0) as server:
        client = ReproClient(port=server.port)
        sid = client.stream_open(StreamOpenRequest(
            method="PMC", error_bound=0.1)).session_id
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10.0)
        sock.sendall((f"POST /v1/stream/{sid}/ingest HTTP/1.1\r\n"
                      f"Host: 127.0.0.1:{server.port}\r\n"
                      "Content-Type: application/x-ndjson\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n").encode())
        line = b'[1.0, 2.0, 3.0]\n'
        sock.sendall(b"%x\r\n%s\r\n" % (len(line), line))
        time.sleep(0.2)  # let the server absorb the first chunk
        sock.close()  # vanish mid-request: no terminating 0-chunk
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if server.sessions.live() == 0:
                break
            time.sleep(0.05)
        assert server.sessions.live() == 0, \
            "disconnected session was not torn down"
        counters = client.metricz()["counters"]
        assert counters["server.stream.disconnects"] >= 1
        with pytest.raises(ServerError) as excinfo:
            client.stream_status(sid)
        assert excinfo.value.status == 404


def test_concurrent_sessions_with_ttl_sweeper_no_bleed():
    # N threads over real sockets, each interleaving its own sessions,
    # while abandoned short-TTL sessions expire under the sweeper: every
    # thread sees exactly its own values back, and the manager drains
    # to empty afterwards
    with ReproServer(_config(), port=0, session_sweep_s=0.1) as server:
        client = ReproClient(port=server.port)
        failures = []

        def worker(worker_id):
            try:
                value = float(100 + worker_id)
                opened = client.stream_open(StreamOpenRequest(
                    method="PMC", error_bound=0.01, forecast_every=2,
                    horizon=2, forecaster="Naive"))
                # an abandoned decoy with a short TTL, never closed
                client.stream_open(StreamOpenRequest(
                    method="PMC", error_bound=0.01, ttl_s=0.3))
                collected = []
                for _ in range(10):
                    collected += client.stream_push(
                        opened.session_id, [value] * 7).segments
                collected += client.stream_close(opened.session_id).segments
                decoded = reconstruct([s.to_segment() for s in collected])
                if decoded.size != 70 or not np.all(decoded == value):
                    failures.append((worker_id, decoded))
            except Exception as error:  # noqa: BLE001 — surface in main
                failures.append((worker_id, error))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures
        deadline = time.time() + 10.0  # decoys expire via the sweeper
        while time.time() < deadline and server.sessions.live():
            time.sleep(0.1)
        assert server.sessions.live() == 0
        assert server.sessions.resident() == 0
        counters = client.metricz()["counters"]
        assert counters["server.stream.expired"] >= 8
        assert counters["server.stream.closed"] >= 8
