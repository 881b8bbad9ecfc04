"""Seeded inputs of the four e2e workloads.

Every payload the program sees is generated here from the run's
``--seed``: the same seed gives byte-identical payloads, another seed
moves every error bound (so no cache carries over between seeds) while
keeping the work the same size.
"""

from __future__ import annotations

import json
import math
import random

from repro.api.codec import encode
from repro.api.requests import (CompressRequest, ForecastRequest, GridRequest,
                                StreamOpenRequest)

#: the grid's and the serving workloads' codec axis
CODECS = ("CAMEO", "LFZIP", "PMC", "SWING", "SZ")
MODELS = ("Arima", "DLinear")
GRID_BOUNDS = (0.01, 0.1, 0.4)
SERVE_DATASETS = ("ETTm1", "Weather")
#: round-robin codecs of the stream sessions (every online encoder)
STREAM_CODECS = ("PMC", "SWING", "LFZIP")
STREAM_PUSHES = 16
STREAM_TICKS = 64

#: cold requests draw error bounds 0.05 + k * 1e-5 from a counter, so
#: no two requests of a run share a cache key
COLD_BASE = 0.05
COLD_STEP = 1e-5
#: warm-up requests of the set-up stay below every measured bound
WARMUP_BASE = 0.04


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _jitter(rng: random.Random, bound: float) -> float:
    """A seed-specific bound within 0.1% of ``bound``."""
    return round(bound * (1.0 + rng.random() * 1e-3), 9)


def grid_requests(seed: int, length: int | None = None
                  ) -> tuple[GridRequest, GridRequest]:
    """The 64-cell grid: forecasting (Arima, DLinear, RAW baseline) and
    anomaly (every registered detector) over 5 codecs x 3 bounds."""
    rng = _rng(seed, "grid")
    bounds = tuple(_jitter(rng, bound) for bound in GRID_BOUNDS)
    forecasting = GridRequest(datasets=("ETTm1",), models=MODELS,
                              methods=CODECS, error_bounds=bounds, seeds=1,
                              length=length)
    anomaly = GridRequest(datasets=("ETTm1",), methods=CODECS,
                          error_bounds=bounds, length=length, task="anomaly")
    return forecasting, anomaly


class _Deck:
    """Seeded draws that use every item equally often: each pass over the
    items is a fresh shuffle, so a short run still gets the full mix."""

    def __init__(self, rng: random.Random, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._pass: list = []

    def draw(self):
        if not self._pass:
            self._pass = self._items[:]
            self._rng.shuffle(self._pass)
        return self._pass.pop()


class ColdPayloads:
    """Never-repeating payloads: 3 forecasts to 1 compress, cycling over
    every (model, codec) and (dataset, codec) pair."""

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, "cold")
        self._k = rng.randrange(400)
        self._kinds = _Deck(rng, ["forecast"] * 3 + ["compress"])
        self._forecasts = _Deck(rng, [(m, c) for m in MODELS for c in CODECS])
        self._compresses = _Deck(rng, [(d, c) for d in SERVE_DATASETS
                                       for c in CODECS])

    def next(self) -> tuple[str, dict]:
        bound = round(COLD_BASE + self._k * COLD_STEP, 10)
        self._k += 1
        if self._kinds.draw() == "forecast":
            model, codec = self._forecasts.draw()
            return "forecast", encode(ForecastRequest(
                model, "ETTm1", method=codec, error_bound=bound))
        dataset, codec = self._compresses.draw()
        return "compress", encode(CompressRequest(dataset, codec, bound))


def warm_pool(seed: int) -> list[tuple[str, dict]]:
    """20 compress signatures (2 datasets x 5 codecs x 2 bounds) plus
    one PMC forecast per model: every request of serve_warm is one."""
    rng = _rng(seed, "warm")
    bounds = (_jitter(rng, 0.05), _jitter(rng, 0.1))
    pool = [("compress", encode(CompressRequest(dataset, codec, bound)))
            for dataset in SERVE_DATASETS for codec in CODECS
            for bound in bounds]
    pool += [("forecast", encode(ForecastRequest(model, "ETTm1",
                                                 method="PMC",
                                                 error_bound=bounds[1])))
             for model in MODELS]
    return pool


class WarmPayloads:
    """Draws from :func:`warm_pool`: 9 compresses to 1 forecast."""

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, "warm-draw")
        pool = warm_pool(seed)
        self._kinds = _Deck(rng, ["compress"] * 9 + ["forecast"])
        self._decks = {kind: _Deck(rng, [i for i in pool if i[0] == kind])
                       for kind in ("compress", "forecast")}

    def next(self) -> tuple[str, dict]:
        return self._decks[self._kinds.draw()].draw()


def stream_session(seed: int, index: int) -> dict:
    """One whole session: an open payload plus its random-walk chunks."""
    rng = _rng(seed, f"stream-{index}")
    level = 20.0
    chunks = []
    for _ in range(STREAM_PUSHES):
        chunk = []
        for _ in range(STREAM_TICKS):
            level += rng.gauss(0.0, 0.1)
            chunk.append(round(level, 6))
        chunks.append(chunk)
    method = STREAM_CODECS[index % len(STREAM_CODECS)]
    opener = StreamOpenRequest(method=method, error_bound=_jitter(rng, 0.05),
                               forecaster="Naive", horizon=8,
                               forecast_every=4)
    return {"open": encode(opener), "chunks": chunks}


class StreamPayloads:
    """Whole sessions, round-robin over the online codecs."""

    def __init__(self, seed: int, first: int = 0) -> None:
        self._seed = seed
        self._index = first

    def next(self) -> tuple[str, dict]:
        session = stream_session(self._seed, self._index)
        self._index += 1
        return "stream", session


def arrivals_bound(rate_hz: float, duration_s: float) -> int:
    """Payloads enough for any Poisson schedule of this rate and length
    (mean plus eight standard deviations)."""
    mean = rate_hz * duration_s
    return int(mean + 8.0 * math.sqrt(mean) + 16)


def write_replay(path: str, payloads, count: int) -> None:
    """Write ``count`` payloads as a loadgen replay trace."""
    with open(path, "w", encoding="utf-8") as stream:
        for _ in range(count):
            kind, payload = payloads.next()
            stream.write(json.dumps({"endpoint": kind, "payload": payload},
                                    sort_keys=True) + "\n")
