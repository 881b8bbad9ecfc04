"""End-to-end repro-serve suite: real sockets, real concurrency.

Covers the serving-layer guarantees:

- concurrent clients with overlapping signatures observe micro-batching
  (``server.batch.occupancy`` max > 1) and all get correct answers;
- a cold request and its warm repeat return byte-identical bodies;
- a failing job under keep-going answers ITS requests with a structured
  503 envelope while batch siblings still succeed;
- async grid: submit returns a run id immediately, polling reaches
  ``done`` with records + manifest, unknown ids are structured 404s;
- malformed payloads are structured 400s, unknown routes 404s;
- overload sheds: saturated batch queues answer 429 + ``Retry-After``
  immediately, expired waits answer 504, nobody rides out the full
  client timeout;
- a finished grid run's poll returns its records and manifest from the
  run store, the daemon's one run ledger;
- ``/v1/metricz`` reads the daemon's live registry: exact across
  scrapes with or without ``trace_dir``, and a daemon without
  ``trace_dir`` runs with tracing off;
- a pool-backend daemon without ``trace_dir`` serves multi-job cells;
- with ``trace_dir`` set, ``trace.jsonl`` holds one ``server.request``
  span per request served, and ``/v1/trace`` renders that directory.
"""

import concurrent.futures
import json
import threading
import time

import pytest

from repro.api import (API_VERSION, CompressRequest, CompressResponse,
                       ErrorEnvelope, ForecastRequest, ForecastResponse,
                       GridRequest, TraceRequest, encode)
from repro.core.config import EvaluationConfig
from repro.obs import trace as obs_trace
from repro.server.app import ReproServer
from repro.server.client import ReproClient, ServerError


def _config(**overrides):
    base = dict(datasets=("ETTm1",), models=("GBoost",),
                compressors=("PMC", "SWING"), error_bounds=(0.1,),
                dataset_length=1_200, input_length=48, horizon=12,
                eval_stride=12, deep_seeds=1, simple_seeds=1,
                cache_dir=None, keep_going=True)
    base.update(overrides)
    return EvaluationConfig(**base)


@pytest.fixture()
def server():
    with ReproServer(_config(), port=0) as instance:
        yield instance


@pytest.fixture()
def client(server):
    return ReproClient(port=server.port)


def _compress_behind_held_batch(server, client, requests):
    """Send ``requests[0]`` alone and hold its batch inside ``execute``.

    The other requests queue while that batch is held and dispatch
    together once it returns, so they coalesce without any timing
    assumption.  Returns one future per request, in order.
    """
    batcher = server._compress_batcher
    entered = threading.Event()
    release = threading.Event()
    original = batcher._execute

    def held(batch):
        entered.set()
        release.wait(30.0)
        return original(batch)

    batcher._execute = held
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=len(requests)) as pool:
        try:
            futures = [pool.submit(client.compress, requests[0])]
            assert entered.wait(30.0)
            futures += [pool.submit(client.compress, request)
                        for request in requests[1:]]
            deadline = time.monotonic() + 30.0
            while (batcher._queue.qsize() < len(requests) - 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert batcher._queue.qsize() == len(requests) - 1
        finally:
            release.set()
        concurrent.futures.wait(futures)
    return futures


def test_healthz_reports_ok(client):
    health = client.healthz()
    assert health.status == "ok"
    assert health.version == API_VERSION


def test_compress_round_trip(client):
    response = client.compress(CompressRequest("ETTm1", "PMC", 0.1,
                                               part="full"))
    assert isinstance(response, CompressResponse)
    assert response.compressed_size > 0
    assert response.te["NRMSE"] >= 0


def test_concurrent_overlapping_requests_batch(server, client):
    requests = [CompressRequest("ETTm1", ("PMC", "SWING")[i % 2], 0.1,
                                part="full") for i in range(16)]
    responses = [future.result() for future in
                 _compress_behind_held_batch(server, client, requests)]
    assert all(isinstance(r, CompressResponse) for r in responses)
    assert [r.method for r in responses] == [q.method for q in requests]

    occupancy = client.metricz()["histograms"]["server.batch.occupancy"]
    assert occupancy["max"] > 1, "concurrent requests never coalesced"
    # queue-wait vs execute split is observable per request
    waits = client.metricz()["histograms"]["server.queue_wait_s"]
    assert waits["count"] >= len(requests)


def test_cold_and_warm_bodies_are_byte_identical(client):
    payload = encode(CompressRequest("ETTm1", "SWING", 0.1, part="full"))
    status_cold, body_cold = client.request_raw("POST", "/v1/compress",
                                                payload)
    status_warm, body_warm = client.request_raw("POST", "/v1/compress",
                                                payload)
    assert status_cold == status_warm == 200
    assert body_cold == body_warm


def test_failing_cell_is_a_structured_503(monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "compress:SWING")
    with ReproServer(_config(), port=0) as server:
        client = ReproClient(port=server.port)
        # the healthy sibling queued into the same batch still succeeds
        _, ok_future, bad_future = _compress_behind_held_batch(
            server, client,
            [CompressRequest("ETTm1", "PMC", 0.1, part="full"),
             CompressRequest("ETTm1", "PMC", 0.1, part="full"),
             CompressRequest("ETTm1", "SWING", 0.1, part="full")])
        assert isinstance(ok_future.result(), CompressResponse)
        with pytest.raises(ServerError) as excinfo:
            bad_future.result()
    assert excinfo.value.status == 503
    envelope = excinfo.value.envelope
    assert isinstance(envelope, ErrorEnvelope)
    assert envelope.kind == "compress"
    assert "InjectedFailure" in envelope.message


def test_forecast_endpoint(client):
    response = client.forecast(
        ForecastRequest("GBoost", "ETTm1", method="PMC", error_bound=0.1))
    assert response.metrics["NRMSE"] > 0


def test_async_grid_submit_poll_done(client):
    submitted = client.grid(GridRequest())
    assert submitted.status == "pending"
    assert submitted.cells == 3  # RAW baseline + PMC + SWING at one bound
    done = client.wait_for_run(submitted.run_id, timeout=300.0)
    assert done.status == "done"
    assert len(done.records) == submitted.cells
    assert done.manifest["total"] > 0
    assert done.failures == ()
    assert client.healthz().runs == 1


def test_unknown_run_id_is_a_structured_404(client):
    with pytest.raises(ServerError) as excinfo:
        client.run_status("nope")
    assert excinfo.value.status == 404
    assert excinfo.value.envelope.kind == "not_found"


def test_unknown_route_is_a_structured_404(client):
    with pytest.raises(ServerError) as excinfo:
        client._request("GET", "/v2/everything")
    assert excinfo.value.status == 404


def test_malformed_payload_is_a_structured_400(client):
    status, body = client.request_raw("POST", "/v1/compress",
                                      {"type": "CompressRequest", "v": 1})
    assert status == 400
    envelope = json.loads(body)
    assert envelope["type"] == "ErrorEnvelope"
    assert envelope["kind"] == "validation"


def test_semantically_invalid_request_is_a_structured_400(client):
    status, body = client.request_raw(
        "POST", "/v1/compress",
        encode(CompressRequest("ETTm1", "PMC", -1.0)))
    assert status == 400
    assert json.loads(body)["kind"] == "validation"


def test_length_beyond_table_1_is_a_structured_400(client):
    status, body = client.request_raw(
        "POST", "/v1/compress",
        encode(CompressRequest("ETTm1", "PMC", 0.1, length=10**12)))
    assert status == 400
    envelope = json.loads(body)
    assert (envelope["kind"], envelope["key"]) == ("validation", "length")


def test_wrong_request_type_for_endpoint_is_rejected(client):
    status, body = client.request_raw(
        "POST", "/v1/compress", encode(GridRequest()))
    assert status == 400
    assert json.loads(body)["kind"] == "validation"


def test_empty_body_is_rejected(client):
    status, body = client.request_raw("POST", "/v1/compress")
    assert status == 400
    assert json.loads(body)["kind"] == "validation"


def test_metricz_counts_requests_and_cache_ratio(client):
    request = CompressRequest("ETTm1", "PMC", 0.1, part="full")
    client.compress(request)
    cold = client.metricz()["counters"]
    client.compress(request)
    warm = client.metricz()["counters"]
    assert cold["server.requests"] >= 2
    assert cold.get("server.status.200", 0) >= 1
    # the cache ratio is read from the scheduler's probe counters: the
    # cold request missed, its repeat hit the cache and executed nothing
    assert cold["runtime.probe.miss"] >= 1
    assert warm["runtime.probe.miss"] == cold["runtime.probe.miss"]
    assert (warm.get("runtime.probe.hit", 0)
            > cold.get("runtime.probe.hit", 0))


def test_trace_dir_holds_one_request_span_per_served_request(tmp_path):
    requests = [CompressRequest("ETTm1", ("PMC", "SWING")[i % 2], 0.1,
                                part="full") for i in range(8)]
    config = _config(trace_dir=str(tmp_path))
    with ReproServer(config, port=0) as server:
        client = ReproClient(port=server.port)
        responses = [future.result() for future in
                     _compress_behind_held_batch(server, client, requests)]
        assert all(isinstance(r, CompressResponse) for r in responses)
        trace = client.trace(TraceRequest(run_dir=str(tmp_path)))
        # the last request served: its count includes itself
        served = client.metricz()["counters"]["server.requests"]
    # stop() joined every handler, so the trace file is final
    with open(tmp_path / "trace.jsonl", encoding="utf-8") as stream:
        records = [json.loads(line) for line in stream if line.strip()]
    request_spans = [r for r in records if r.get("type") == "span"
                     and r.get("name") == "server.request"]
    assert len(request_spans) == served
    assert len(trace.lines) > 0


# -- backpressure / load shedding ---------------------------------------------


def test_saturated_batch_queue_sheds_429_with_retry_after():
    entered = threading.Event()
    release = threading.Event()
    with ReproServer(_config(), port=0, max_batch=1,
                     max_queue=1, request_timeout_s=1.0,
                     retry_after_s=3) as server:
        original = server._compress_batcher._execute

        def wedge(requests):
            entered.set()
            release.wait(15.0)
            return original(requests)

        server._compress_batcher._execute = wedge
        client = ReproClient(port=server.port, timeout=30.0)
        payload = encode(CompressRequest("ETTm1", "PMC", 0.1, part="full"))
        started = time.monotonic()
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(client.request_full, "POST",
                                       "/v1/compress", payload)
                           for _ in range(8)]
                outcomes = [f.result() for f in futures]
            elapsed = time.monotonic() - started
        finally:
            release.set()
    statuses = [status for status, _, _ in outcomes]
    # the wedged head-of-line request expires into a structured 504 ...
    assert 504 in statuses
    # ... and with one batch slot + one queue slot, the rest are shed
    assert statuses.count(429) >= 5
    assert all(status in (200, 429, 504) for status in statuses)
    # shed responses advertise when to come back
    shed_headers = [headers for status, headers, _ in outcomes
                    if status == 429]
    assert all(headers.get("Retry-After") == "3"
               for headers in shed_headers)
    # the backpressure bar: nobody waited anywhere near the 30s client
    # budget — sheds were immediate, expiries bounded by the 1s server one
    assert elapsed < 10.0
    # both failure shapes are structured envelopes with distinct kinds
    kinds = {json.loads(body)["kind"] for status, _, body in outcomes
             if status in (429, 504)}
    assert kinds == {"overloaded", "timeout"}


def test_grid_admission_control_sheds_429():
    with ReproServer(_config(), port=0, max_inflight_runs=1) as server:
        client = ReproClient(port=server.port)
        first = client.grid(GridRequest())
        # the first run is in flight; a second submission is refused
        status, headers, body = client.request_full(
            "POST", "/v1/grid", encode(GridRequest()))
        assert status == 429
        assert headers.get("Retry-After") == "1"
        envelope = json.loads(body)
        assert envelope["kind"] == "overloaded"
        assert "in flight" in envelope["message"]
        assert client.healthz().inflight_runs == 1
        # once the first run finishes, admission reopens
        client.wait_for_run(first.run_id, timeout=300.0)
        assert client.healthz().inflight_runs == 0
        second = client.grid(GridRequest(methods=("SWING",)))
        client.wait_for_run(second.run_id, timeout=300.0)


# -- the run store is the one run ledger --------------------------------------


def test_finished_run_poll_reads_records_and_manifest_from_the_store():
    with ReproServer(_config(), port=0) as server:
        client = ReproClient(port=server.port)
        first = client.grid(GridRequest(methods=("PMC",)))
        client.wait_for_run(first.run_id, timeout=300.0)
        second = client.grid(GridRequest(methods=("SWING",)))
        client.wait_for_run(second.run_id, timeout=300.0)
        # finished runs hold no admission slot, and the health count is
        # the store's
        health = client.healthz()
        assert health.inflight_runs == 0
        assert health.runs == server.store.count() == 2
        # the poll answers with exactly what the store recorded
        recovered = client.run_status(first.run_id)
        stored = server.store.get(first.run_id)
        assert recovered.status == stored.status == "done"
        assert len(recovered.records) == first.cells
        assert [encode(r) for r in recovered.records] == stored.records
        assert json.loads(json.dumps(recovered.manifest)) == stored.manifest
        assert recovered.manifest["total"] > 0
        # unknown ids still 404
        with pytest.raises(ServerError) as excinfo:
            client.run_status("nope")
        assert excinfo.value.status == 404


# -- /v1/metricz reads the live registry ---------------------------------------


def test_metricz_is_exact_across_incremental_scrapes(client):
    first = client.metricz()
    client.compress(CompressRequest("ETTm1", "PMC", 0.1, part="full"))
    second = client.metricz()
    client.compress(CompressRequest("ETTm1", "PMC", 0.1, part="full"))
    third = client.metricz()
    counts = [totals["counters"].get("server.requests", 0)
              for totals in (first, second, third)]
    # monotone and counting every request exactly once across scrapes
    assert counts[0] < counts[1] < counts[2]


def test_metricz_is_exact_across_scrapes_with_trace_dir(tmp_path):
    # the path where each scheduler run used to flush (and reset) the
    # registry into the trace file between scrapes
    with ReproServer(_config(trace_dir=str(tmp_path)), port=0) as server:
        client = ReproClient(port=server.port)
        request = CompressRequest("ETTm1", "PMC", 0.1, part="full")
        scrapes = [client.metricz()]
        for _ in range(2):
            client.compress(request)
            scrapes.append(client.metricz())
    counts = [totals["counters"]["server.requests"] for totals in scrapes]
    # each step adds one compress request and the scrape itself
    assert [b - a for a, b in zip(counts, counts[1:])] == [2, 2]
    probes = [totals["counters"].get("runtime.probe.hit", 0)
              + totals["counters"].get("runtime.probe.miss", 0)
              for totals in scrapes]
    assert probes[0] < probes[1] < probes[2]


def test_untraced_daemon_counts_every_request_without_a_tracer():
    with ReproServer(_config(), port=0) as server:
        # no trace_dir: spans are the shared no-op, nothing is retained
        assert obs_trace.active() is None
        client = ReproClient(port=server.port)
        before = client.metricz()["counters"]["server.requests"]
        served = 5
        for _ in range(served):
            client.healthz()
        after = client.metricz()["counters"]["server.requests"]
    # the served requests plus the second scrape, each counted once
    assert after - before == served + 1


def test_pool_daemon_without_trace_dir_serves_forecasts():
    config = _config(models=("Arima",), backend="pool", max_workers=2)
    with ReproServer(config, port=0) as server:
        client = ReproClient(port=server.port)
        response = client.forecast(ForecastRequest(
            "Arima", "ETTm1", method="PMC", error_bound=0.05, length=1_200))
    assert isinstance(response, ForecastResponse)
