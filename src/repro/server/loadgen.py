"""``repro-eval loadgen``: an open-loop load generator + SLO harness.

The ROADMAP's scale claim needs a witness: this module drives a live
``repro-serve`` daemon over real sockets with an *open-loop* workload —
Poisson arrivals at ``rate_hz``, fired by ``clients`` threads on a
precomputed schedule that does NOT wait for responses — and turns the
observed behaviour into a committed, regression-gated benchmark
(``BENCH_serve.json``, the serving-side sibling of
``BENCH_compression.json``).

Open loop is the part that matters.  A closed-loop driver (fire, wait,
fire again) slows down exactly when the server does, hiding overload —
the coordinated-omission trap.  Here every request has a *scheduled*
arrival time drawn from the Poisson process, and its latency is measured
from that schedule, not from the moment a free thread got around to
sending it: queueing delay inside the harness counts against the server,
the way a real user's wait would.

The request mix is configurable — ``compress`` / ``forecast`` (the
micro-batched endpoints), ``grid`` (async submit), and ``stream``
(whole live sessions: open, a fixed chunk sequence of pushes, close —
one *scheduled arrival per session*, its latency measured open-to-close)
— and either *synthesized* over the dataset/method/model registries (a
small pool of overlapping signatures, so micro-batching and
content-addressed caching both matter, like real traffic) or *replayed*
from a JSONL trace file (``{"endpoint": "compress", "payload":
{...tagged request...}}`` per line — for ``stream`` the payload is
``{"open": {...tagged StreamOpenRequest...}, "chunks": [[...], ...]}``
— cycled over the schedule).

The report carries:

- client-side: p50/p95/p99/mean/max latency (nearest-rank, from the
  scheduled arrival), throughput, offered rate, and shed / timeout /
  error rates, totals per request kind;
- server-side (scraped from ``/v1/metricz`` as before/after deltas):
  batch occupancy (mean/max/p95), the cache hit ratio of the run's
  job probes (``None`` when it probed nothing), shed, request and
  accepted-connection counters (fewer connections than requests means
  the client threads' kept-alive connections were reused);
- an ``slo`` block of thresholds that :func:`check_serve_report` turns
  into regression messages — the ``--check`` exit-code gate CI runs.

Backpressure contract under deliberate overload: the server sheds with
HTTP 429 + ``Retry-After`` (counted, not errored, by the harness) and no
request ever waits out the full timeout — both gated by the SLO check.
"""

from __future__ import annotations

import json
import queue as queue_module
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.api.codec import encode
from repro.api.requests import (CompressRequest, ForecastRequest, GridRequest,
                                StreamCloseRequest, StreamOpenRequest,
                                StreamPushRequest)
from repro.api.schema import validate_payload
from repro.bench import machine_metadata, percentiles
from repro.compression.registry import LOSSY_METHODS
from repro.datasets.registry import DATASET_NAMES
from repro.obs.metrics import quantile_from_dict
from repro.obs.trace import WALL
from repro.server.client import ReproClient

DEFAULT_OUTPUT = "BENCH_serve.json"
SCHEMA_VERSION = 1

#: request kind -> endpoint path ("stream" drives a whole session
#: against /v1/stream + its per-session push/close sub-paths)
ENDPOINTS = {"compress": "/v1/compress", "forecast": "/v1/forecast",
             "grid": "/v1/grid", "stream": "/v1/stream"}

#: default mix: batched endpoints dominate, a trickle of async grids
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("compress", 0.90), ("forecast", 0.08), ("grid", 0.02))


@dataclass(frozen=True)
class SloConfig:
    """Thresholds :func:`check_serve_report` gates a report against."""

    #: ceiling on client-observed p99 latency (scheduled-arrival based)
    max_p99_ms: float = 5_000.0
    #: floor on completed-request throughput
    min_throughput_rps: float = 1.0
    #: ceiling on the non-shed failure fraction (timeouts + errors)
    max_error_rate: float = 0.0
    #: ceiling on the shed fraction (429s); 1.0 = shedding is acceptable
    max_shed_rate: float = 1.0

    def to_dict(self) -> dict:
        return {"max_p99_ms": self.max_p99_ms,
                "min_throughput_rps": self.min_throughput_rps,
                "max_error_rate": self.max_error_rate,
                "max_shed_rate": self.max_shed_rate}


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: arrival process, mix, client fleet, SLOs."""

    duration_s: float = 10.0
    #: Poisson arrival rate (open loop: the schedule ignores responses)
    rate_hz: float = 50.0
    #: client threads firing the schedule (bounds harness concurrency,
    #: not the arrival process)
    clients: int = 16
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    seed: int = 0
    #: per-request socket timeout (client side)
    timeout_s: float = 30.0
    #: JSONL trace to replay instead of synthesizing (cycled)
    replay: str | None = None
    #: fire each distinct non-grid payload once before the clock starts,
    #: so the timed run measures the serving path, not cold caches
    warmup: bool = True
    slo: SloConfig = field(default_factory=SloConfig)

    def to_dict(self) -> dict:
        return {"duration_s": self.duration_s, "rate_hz": self.rate_hz,
                "clients": self.clients,
                "mix": {kind: weight for kind, weight in self.mix},
                "seed": self.seed, "timeout_s": self.timeout_s,
                "replay": self.replay, "warmup": self.warmup,
                "slo": self.slo.to_dict()}


# -- workload synthesis --------------------------------------------------------


def synthesized_pools(length: int | None = None) -> dict[str, list[dict]]:
    """Payload pools per kind, drawn from the registries.

    Deliberately small signature pools (4 datasets x 3 methods x 2
    bounds for compress): concurrent arrivals overlap, so micro-batching
    coalesces them and the content-addressed cache dedups the work —
    the regime the serving layer is built for.
    """
    compress = [encode(CompressRequest(dataset, method, bound, part="full",
                                       length=length))
                for dataset in DATASET_NAMES[:4]
                for method in LOSSY_METHODS
                for bound in (0.05, 0.1)]
    forecast = [encode(ForecastRequest("GBoost", dataset, method=method,
                                       error_bound=bound, length=length))
                for dataset in DATASET_NAMES[:2]
                for method, bound in (("RAW", 0.0), ("PMC", 0.1))]
    grid = [encode(GridRequest(datasets=(DATASET_NAMES[0],),
                               models=("GBoost",), methods=("PMC",),
                               error_bounds=(0.1,), seeds=1, length=length))]
    return {"compress": compress, "forecast": forecast, "grid": grid,
            "stream": stream_specs()}


def stream_specs(sessions: int = 4, chunks: int = 6,
                 chunk_ticks: int = 32) -> list[dict]:
    """Deterministic stream-session specs for the ``stream`` kind.

    Each spec is one whole session: an open payload (PMC/Swing at two
    bounds, a short Naive forecast cadence) plus a fixed random-walk
    tick sequence split into chunks.  Values are seeded per spec, so a
    rerun offers byte-identical sessions.
    """
    specs: list[dict] = []
    settings = [("PMC", 0.05), ("SWING", 0.05), ("PMC", 0.1),
                ("SWING", 0.1)]
    for index in range(sessions):
        method, bound = settings[index % len(settings)]
        rng = random.Random(9_000 + index)
        level = 20.0
        tick_chunks: list[list[float]] = []
        for _ in range(chunks):
            chunk: list[float] = []
            for _ in range(chunk_ticks):
                level += rng.gauss(0.0, 0.1)
                chunk.append(round(level, 6))
            tick_chunks.append(chunk)
        specs.append({
            "open": encode(StreamOpenRequest(
                method=method, error_bound=bound, forecaster="Naive",
                horizon=8, forecast_every=4)),
            "chunks": tick_chunks,
        })
    return specs


def load_replay(path: str) -> list[tuple[str, dict]]:
    """Parse a replay trace: one ``{"endpoint", "payload"}`` JSON per line."""
    items: list[tuple[str, dict]] = []
    with open(path, encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("endpoint")
            if kind not in ENDPOINTS:
                raise ValueError(f"{path}:{number}: unknown endpoint "
                                 f"{kind!r} (choose from "
                                 f"{', '.join(ENDPOINTS)})")
            payload = record["payload"]
            if kind == "stream":
                # a session spec: tagged open payload + plain tick chunks
                if not isinstance(payload, dict):
                    raise ValueError(f"{path}:{number}: stream payload "
                                     "must be an object")
                validate_payload(payload.get("open"))
                chunks = payload.get("chunks")
                if not (isinstance(chunks, list) and chunks
                        and all(isinstance(c, list) for c in chunks)):
                    raise ValueError(f"{path}:{number}: stream payload "
                                     "needs a non-empty 'chunks' list of "
                                     "tick arrays")
            else:
                validate_payload(payload)
            items.append((kind, payload))
    if not items:
        raise ValueError(f"{path}: replay trace holds no requests")
    return items


def build_schedule(config: LoadgenConfig,
                   length: int | None = None
                   ) -> list[tuple[float, str, dict]]:
    """The full open-loop plan: (arrival offset, kind, payload) tuples.

    Arrival offsets come from a seeded Poisson process (exponential
    inter-arrivals at ``rate_hz``); kinds are drawn from the mix, and
    payloads round-robin per kind through the pool (or the replay trace
    in file order), so a rerun with the same seed offers the same load.
    """
    rng = random.Random(config.seed)
    if config.replay:
        replay = load_replay(config.replay)
    else:
        pools = synthesized_pools(length)
        weights = [(kind, weight) for kind, weight in config.mix
                   if weight > 0 and pools.get(kind)]
        if not weights:
            raise ValueError("the request mix selects no known kind")
        total = sum(weight for _, weight in weights)
    cursor: dict[str, int] = {}
    schedule: list[tuple[float, str, dict]] = []
    offset = 0.0
    while offset < config.duration_s:
        if config.replay:
            kind, payload = replay[len(schedule) % len(replay)]
        else:
            mark, kind = rng.random() * total, weights[-1][0]
            for name, weight in weights:
                if mark < weight:
                    kind = name
                    break
                mark -= weight
            pool = pools[kind]
            index = cursor.get(kind, 0)
            cursor[kind] = index + 1
            payload = pool[index % len(pool)]
        schedule.append((offset, kind, payload))
        offset += rng.expovariate(config.rate_hz)
    return schedule


# -- the drive -----------------------------------------------------------------


def _classify(status: int) -> str:
    if 200 <= status < 300:
        return "ok"
    if status == 429:
        return "shed"
    if status == 504:
        return "timeout"
    return "error"


def _drive_stream(client: ReproClient, spec: dict
                  ) -> tuple[int, str, str | None]:
    """One whole stream session: open, push every chunk, close.

    The session counts as ONE scheduled arrival; its outcome is the
    first non-2xx answer (a shed open is a clean ``shed``, matching the
    admission contract) and its latency runs open-to-close — the
    user-visible cost of streaming a series through the daemon.
    """
    status, headers, body = client.request_full("POST", ENDPOINTS["stream"],
                                                spec["open"])
    if not 200 <= status < 300:
        return status, _classify(status), headers.get("Retry-After")
    session_id = json.loads(body)["session_id"]
    for chunk in spec["chunks"]:
        status, headers, _ = client.request_full(
            "POST", f"/v1/stream/{session_id}/push",
            encode(StreamPushRequest(values=tuple(chunk))))
        if not 200 <= status < 300:
            return status, _classify(status), headers.get("Retry-After")
    status, headers, _ = client.request_full(
        "POST", f"/v1/stream/{session_id}/close",
        encode(StreamCloseRequest()))
    return status, _classify(status), headers.get("Retry-After")


def _fire(client: ReproClient, work: queue_module.Queue, start: float,
          results: list[dict], lock: threading.Lock) -> None:
    """One client thread: pop scheduled work, wait for its arrival, fire."""
    while True:
        try:
            offset, kind, payload = work.get_nowait()
        except queue_module.Empty:
            return
        delay = (start + offset) - WALL()
        if delay > 0:
            time.sleep(delay)
        sent_at = WALL()
        try:
            if kind == "stream":
                status, outcome, retry_after = _drive_stream(client,
                                                             payload)
            else:
                status, headers, _ = client.request_full(
                    "POST", ENDPOINTS[kind], payload)
                outcome = _classify(status)
                retry_after = headers.get("Retry-After")
        except Exception as error:  # noqa: BLE001 — a dead socket is data
            status, outcome, retry_after = 0, "error", None
            _ = error
        finished = WALL()
        with lock:
            results.append({
                "kind": kind, "status": status, "outcome": outcome,
                # the SLO latency: from the *scheduled* arrival, so
                # harness queueing (coordinated omission) counts too
                "latency_s": finished - (start + offset),
                "service_s": finished - sent_at,
                "retry_after": retry_after,
            })


def _counter(totals: dict, name: str) -> float:
    return float(totals.get("counters", {}).get(name, 0.0))


def _histogram_delta(after: dict | None, before: dict | None) -> dict | None:
    """Bucketwise difference of two cumulative histogram payloads.

    Fixed buckets subtract exactly (counts/total/count); min/max are not
    recoverable from a difference, so the after-side bounds are kept —
    a safe clamp for the quantile estimate.
    """
    if after is None:
        return None
    if before is None:
        return dict(after)
    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    return {"counts": counts, "total": after["total"] - before["total"],
            "count": after["count"] - before["count"],
            "min": after.get("min"), "max": after.get("max")}


def _server_stats(before: dict, after: dict) -> dict:
    """Server-side deltas over the run, scraped from ``/v1/metricz``."""
    occupancy = _histogram_delta(
        after.get("histograms", {}).get("server.batch.occupancy"),
        before.get("histograms", {}).get("server.batch.occupancy"))
    stats: dict[str, Any] = {
        "requests": _counter(after, "server.requests")
        - _counter(before, "server.requests"),
        "connections": _counter(after, "server.connections")
        - _counter(before, "server.connections"),
        "shed": _counter(after, "server.shed")
        - _counter(before, "server.shed"),
        "batches": 0.0,
        "batch_occupancy_mean": None,
        "batch_occupancy_max": None,
        "batch_occupancy_p95": None,
        "cache_hit_ratio": None,
        "stream_opened": _counter(after, "server.stream.opened")
        - _counter(before, "server.stream.opened"),
        "stream_segments": _counter(after, "server.stream.segments")
        - _counter(before, "server.stream.segments"),
        "stream_live": after.get("gauges", {}).get("server.stream.live"),
    }
    hits = (_counter(after, "runtime.probe.hit")
            - _counter(before, "runtime.probe.hit"))
    probes = hits + (_counter(after, "runtime.probe.miss")
                     - _counter(before, "runtime.probe.miss"))
    if probes > 0:
        stats["cache_hit_ratio"] = hits / probes
    if occupancy and occupancy["count"] > 0:
        stats["batches"] = occupancy["count"]
        stats["batch_occupancy_mean"] = round(
            occupancy["total"] / occupancy["count"], 3)
        stats["batch_occupancy_max"] = occupancy.get("max")
        stats["batch_occupancy_p95"] = quantile_from_dict(occupancy, 0.95)
    return stats


def run_loadgen(config: LoadgenConfig | None = None,
                host: str = "127.0.0.1", port: int = 8321,
                length: int | None = None,
                progress: Callable[[str], None] | None = None) -> dict:
    """Drive a live ``repro-serve`` and return the report dictionary."""
    config = config or LoadgenConfig()
    say = progress or (lambda message: None)
    client = ReproClient(host=host, port=port, timeout=config.timeout_s)
    health = client.healthz()
    say(f"[loadgen] target {host}:{port} healthy "
        f"(v{health.version}, uptime {health.uptime_s:.0f}s)")

    schedule = build_schedule(config, length)
    say(f"[loadgen] {len(schedule)} arrivals over {config.duration_s:g}s "
        f"at {config.rate_hz:g} rps ({config.clients} clients, "
        f"seed {config.seed})")

    if config.warmup:
        warmed = _warm(client, schedule, say)
        say(f"[loadgen] warmed {warmed} distinct signatures")

    before = client.metricz()
    work: queue_module.Queue = queue_module.Queue()
    for item in schedule:
        work.put(item)
    results: list[dict] = []
    lock = threading.Lock()
    start = WALL()
    threads = [threading.Thread(target=_fire,
                                args=(client, work, start, results, lock),
                                name=f"loadgen-{i}", daemon=True)
               for i in range(max(1, config.clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = WALL() - start
    after = client.metricz()
    say(f"[loadgen] drained in {wall_s:.2f}s wall")

    return _build_report(config, schedule, results, wall_s, before, after)


def _warm(client: ReproClient, schedule: list[tuple[float, str, dict]],
          say: Callable[[str], None]) -> int:
    """Serially fire each distinct batched payload once (cache warm)."""
    seen: set[str] = set()
    for _, kind, payload in schedule:
        if kind in ("grid", "stream"):
            # a warmup grid would create a real run, a warmup stream a
            # real session — and stream latency has no cold cache to warm
            continue
        key = json.dumps(payload, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        try:
            client.request_full("POST", ENDPOINTS[kind], payload)
        except Exception as error:  # noqa: BLE001 — warmup is best-effort
            say(f"[loadgen] warmup {kind} failed: {error!r}")
    return len(seen)


def _build_report(config: LoadgenConfig,
                  schedule: list[tuple[float, str, dict]],
                  results: list[dict], wall_s: float,
                  before: dict, after: dict) -> dict:
    outcomes = {"ok": 0, "shed": 0, "timeout": 0, "error": 0}
    latencies: list[float] = []
    per_kind: dict[str, dict] = {}
    for record in results:
        outcomes[record["outcome"]] += 1
        latencies.append(record["latency_s"])
        kind = per_kind.setdefault(record["kind"], {
            "sent": 0, "ok": 0, "shed": 0, "timeout": 0, "error": 0,
            "latencies": []})
        kind["sent"] += 1
        kind[record["outcome"]] += 1
        kind["latencies"].append(record["latency_s"])
    sent = len(results)
    failed = outcomes["timeout"] + outcomes["error"]
    latency_ms = {name: round(value * 1e3, 3)
                  for name, value in percentiles(latencies).items()}
    latency_ms["mean"] = round(
        sum(latencies) / sent * 1e3, 3) if sent else float("nan")
    latency_ms["max"] = round(max(latencies) * 1e3, 3) if sent else float(
        "nan")
    for kind in per_kind.values():
        kind_latencies = kind.pop("latencies")
        kind.update({name: round(value * 1e3, 3) for name, value
                     in percentiles(kind_latencies, (50.0, 99.0)).items()
                     } if kind_latencies else {})
    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_metadata(),
        "config": config.to_dict(),
        "totals": {
            "scheduled": len(schedule),
            "sent": sent,
            "ok": outcomes["ok"],
            "shed": outcomes["shed"],
            "timeouts": outcomes["timeout"],
            "errors": outcomes["error"],
            "duration_s": round(wall_s, 3),
            "offered_rps": round(len(schedule) / config.duration_s, 3),
            "throughput_rps": round(outcomes["ok"] / wall_s, 3)
            if wall_s > 0 else 0.0,
            "shed_rate": round(outcomes["shed"] / sent, 4) if sent else 0.0,
            "error_rate": round(failed / sent, 4) if sent else 0.0,
        },
        "latency_ms": latency_ms,
        "per_kind": per_kind,
        "server": _server_stats(before, after),
    }


# -- the gate ------------------------------------------------------------------

#: report sections ``--check`` insists on (the committed-baseline shape)
REQUIRED_SECTIONS = ("config", "totals", "latency_ms", "server")


def check_serve_report(report: dict) -> list[str]:
    """Regression messages; empty when the report clears its SLOs.

    Mirrors :func:`repro.bench.check_report`: the thresholds live in the
    report itself (its ``config.slo`` block), so the committed
    ``BENCH_serve.json`` is self-gating.
    """
    failures: list[str] = []
    for section in REQUIRED_SECTIONS:
        if not isinstance(report.get(section), dict):
            failures.append(f"report is missing its {section!r} section")
    if failures:
        return failures
    slo = report["config"].get("slo", {})
    totals, latency = report["totals"], report["latency_ms"]
    if not totals.get("sent"):
        failures.append("no requests were sent (empty schedule?)")
        return failures
    p99 = float(latency.get("p99", float("inf")))
    max_p99 = float(slo.get("max_p99_ms", float("inf")))
    if not p99 <= max_p99:
        failures.append(f"p99 latency {p99:.1f}ms exceeds the SLO "
                        f"ceiling {max_p99:.1f}ms")
    throughput = float(totals.get("throughput_rps", 0.0))
    floor = float(slo.get("min_throughput_rps", 0.0))
    if throughput < floor:
        failures.append(f"throughput {throughput:.1f} rps below the SLO "
                        f"floor {floor:.1f} rps")
    error_rate = float(totals.get("error_rate", 1.0))
    max_error = float(slo.get("max_error_rate", 0.0))
    if error_rate > max_error:
        failures.append(f"error rate {error_rate:.2%} (timeouts+errors) "
                        f"exceeds the SLO ceiling {max_error:.2%}")
    shed_rate = float(totals.get("shed_rate", 0.0))
    max_shed = float(slo.get("max_shed_rate", 1.0))
    if shed_rate > max_shed:
        failures.append(f"shed rate {shed_rate:.2%} exceeds the SLO "
                        f"ceiling {max_shed:.2%}")
    # the backpressure acceptance bar: shedding answers immediately —
    # no request may ride out the entire client timeout budget
    timeout_ms = float(report["config"].get("timeout_s", 0.0)) * 1e3
    max_ms = float(latency.get("max", 0.0))
    if timeout_ms and max_ms >= timeout_ms:
        failures.append(f"slowest request waited {max_ms:.0f}ms — the "
                        f"full {timeout_ms:.0f}ms timeout budget; "
                        f"backpressure failed to shed")
    return failures


# -- self-hosting (tests, CI smoke without a separate daemon) ------------------


@contextmanager
def self_hosted(length: int = 512, max_batch: int = 64,
                max_queue: int | None = 1024,
                max_inflight_runs: int = 16,
                request_timeout_s: float = 60.0,
                cache_dir: str | None = None, max_sessions: int = 256,
                session_ttl_s: float = 3600.0,
                max_resident_sessions: int | None = None) -> Iterator[Any]:
    """Boot an ephemeral in-process ``repro-serve`` to load-test against.

    Still exercises real sockets — the daemon binds a real port and the
    harness speaks HTTP to it — but spares tests and quick local runs a
    separate process.
    """
    from repro.core.config import EvaluationConfig
    from repro.server.app import ReproServer

    # Scale forecast windows with the (deliberately short) dataset so the
    # test split can still hold at least one window — the production
    # defaults (96+24) need more history than a quick load test generates.
    config = EvaluationConfig(dataset_length=length, cache_dir=cache_dir,
                              input_length=max(8, length // 8),
                              horizon=max(4, length // 32),
                              keep_going=True, simple_seeds=1, deep_seeds=1)
    with ReproServer(config, port=0, max_batch=max_batch, max_queue=max_queue,
                     max_inflight_runs=max_inflight_runs,
                     request_timeout_s=request_timeout_s,
                     max_sessions=max_sessions, session_ttl_s=session_ttl_s,
                     max_resident_sessions=max_resident_sessions) as server:
        yield server
