"""Fire a workload at the daemon: open loop on a schedule, then closed loop.

``repro.server.loadgen`` supplies the seeded Poisson schedule and
``ReproClient`` the sockets; this module fires them from two client
threads so that it can record how late each request left (generator
lateness) and keep every response body for the output checks.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.api.codec import encode
from repro.api.requests import StreamCloseRequest, StreamPushRequest
from repro.server.loadgen import ENDPOINTS

from tracing import CLOCK

#: client threads of the one generator process
CLIENTS = 2

#: percentiles a latency summary may report, if the sample supports them
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Outcome:
    """One operation: a request, or a whole stream session."""

    kind: str
    payload: dict
    scheduled: float
    sent: float = 0.0
    finished: float = 0.0
    ok: bool = False
    #: (path, status, body) of every HTTP exchange, in order
    exchanges: list = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        """From the scheduled arrival; a failure misses every limit."""
        return self.finished - self.scheduled if self.ok else math.inf


def _post(client, outcome: Outcome, path: str, payload: dict) -> bool:
    status, _, body = client.request_full("POST", path, payload)
    outcome.exchanges.append((path, status, body))
    return 200 <= status < 300


def fire(client, outcome: Outcome) -> None:
    """Send one operation; a stream session stops at its first failure."""
    try:
        if outcome.kind != "stream":
            outcome.ok = _post(client, outcome, ENDPOINTS[outcome.kind],
                               outcome.payload)
            return
        spec = outcome.payload
        if not _post(client, outcome, ENDPOINTS["stream"], spec["open"]):
            return
        session = json.loads(outcome.exchanges[-1][2])["session_id"]
        for chunk in spec["chunks"]:
            if not _post(client, outcome, f"/v1/stream/{session}/push",
                         encode(StreamPushRequest(values=tuple(chunk)))):
                return
        outcome.ok = _post(client, outcome, f"/v1/stream/{session}/close",
                           encode(StreamCloseRequest()))
    except (OSError, ValueError, KeyError):
        outcome.ok = False
    finally:
        outcome.finished = CLOCK()


def open_loop(client, schedule: list
              ) -> tuple[list[Outcome], float, float]:
    """Fire ``(offset, kind, payload)`` items at their scheduled times.

    Returns the outcomes and the phase's start and end on :data:`CLOCK`.
    """
    work: queue.Queue = queue.Queue()
    start = CLOCK() + 0.05  # the client threads' start-up is not lateness
    for offset, kind, payload in schedule:
        work.put(Outcome(kind, payload, start + offset))
    done: list[Outcome] = []

    def loop() -> None:
        while True:
            try:
                outcome = work.get_nowait()
            except queue.Empty:
                return
            delay = outcome.scheduled - CLOCK()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = CLOCK()
            fire(client, outcome)
            done.append(outcome)

    _run_threads(loop)
    return done, start, CLOCK()


def closed_loop(client, payloads, seconds: float
                ) -> tuple[list[Outcome], float, float]:
    """Each client sends its next operation as soon as the last returns,
    until ``seconds`` have passed; returns outcomes, start and end."""
    lock = threading.Lock()
    done: list[Outcome] = []
    start = CLOCK()
    deadline = start + seconds

    def loop() -> None:
        while CLOCK() < deadline:
            with lock:
                kind, payload = payloads.next()
            outcome = Outcome(kind, payload, CLOCK())
            outcome.sent = outcome.scheduled
            fire(client, outcome)
            done.append(outcome)

    _run_threads(loop)
    return done, start, max([start] + [o.finished for o in done])


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, name=f"e2e-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _rank(point: float, count: int) -> int:
    # nearest rank, immune to 0.9 * 100 == 90.00000000000001
    return max(1, math.ceil(round(point * count / 100.0, 9)))


def percentile(samples: list[float], point: float) -> float:
    """Nearest-rank percentile: always a value some operation saw."""
    ordered = sorted(samples)
    return ordered[min(_rank(point, len(ordered)), len(ordered)) - 1]


def top_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    supported = [p for p in LADDER if count - _rank(p, count) >= 10]
    return supported[-1] if supported else None


def latency_summary(outcomes: list[Outcome]) -> dict:
    """p50/p90 and the sample's top percentile, in ms; lateness p90."""
    latencies = [o.latency_s for o in outcomes]
    lateness = [o.sent - o.scheduled for o in outcomes]
    top = top_percentile(len(latencies))
    return {
        "samples": len(latencies),
        "p50_ms": 1e3 * percentile(latencies, 50.0),
        "p90_ms": 1e3 * percentile(latencies, 90.0),
        "top_percentile": top,
        "top_ms": None if top is None else 1e3 * percentile(latencies, top),
        "late_p90_ms": 1e3 * percentile(lateness, 90.0),
    }
