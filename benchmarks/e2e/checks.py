"""Output checks of the e2e benchmark: a fast answer must also be right.

Each failed check counts against the run's ``failed`` total, makes the
result ``"correct": false`` and the command's exit status non-zero.
"""

from __future__ import annotations

import json
import random

from repro import registry
from repro.api.codec import decode, encode
from repro.api.errors import ApiError
from repro.api.requests import (CompressRequest, ForecastRequest,
                                StreamOpenRequest)
from repro.api.responses import (CompressResponse, ForecastResponse,
                                 StreamOpenResponse, StreamPushResponse)
from repro.compression.streaming import STREAMING_ALGORITHMS, segments_payload

from payloads import STREAM_CODECS, stream_session
from tracing import CLOCK
from traffic import Outcome, fire

#: compress responses compared byte for byte with an in-process answer
SAMPLED = 5
#: first session index of the post-run verification sessions
VERIFY_SESSION = 900_000


def _decode(body: bytes, expect: type):
    return decode(json.loads(body), expect=expect)


def check_outcome(outcome: Outcome) -> bool:
    """Every exchange is 2xx, decodes to its typed response, and answers
    the request it was sent for."""
    if not outcome.ok:
        return False
    try:
        if outcome.kind == "compress":
            request = decode(outcome.payload, expect=CompressRequest)
            response = _decode(outcome.exchanges[-1][2], CompressResponse)
            return ((response.dataset, response.method, response.error_bound)
                    == (request.dataset, request.method,
                        request.error_bound))
        if outcome.kind == "forecast":
            request = decode(outcome.payload, expect=ForecastRequest)
            response = _decode(outcome.exchanges[-1][2], ForecastResponse)
            return ((response.model, response.dataset, response.method,
                     response.error_bound)
                    == (request.model, request.dataset, request.method,
                        request.error_bound))
        opened = _decode(outcome.exchanges[0][2], StreamOpenResponse)
        pushes = [_decode(body, StreamPushResponse)
                  for _, _, body in outcome.exchanges[1:]]
        return (all(p.session_id == opened.session_id for p in pushes)
                and pushes[-1].closed
                and pushes[-1].ticks == sum(map(len,
                                                outcome.payload["chunks"])))
    except (ValueError, KeyError, IndexError, ApiError):
        return False


def check_compress_samples(outcomes: list[Outcome], seed: int,
                           length: int) -> tuple[int, int]:
    """(attempted, failed): sampled compress responses must equal, byte
    for byte, what an in-process ``ApiService`` answers."""
    from repro.api.service import ApiService
    from repro.core.config import EvaluationConfig

    answered = [o for o in outcomes if o.kind == "compress" and o.ok]
    sample = random.Random(f"sample:{seed}").sample(
        answered, min(SAMPLED, len(answered)))
    if not sample:
        return 0, 0
    service = ApiService(EvaluationConfig(dataset_length=length,
                                          cache_dir=None, keep_going=True))
    expected = service.compress_batch(
        [decode(o.payload, expect=CompressRequest) for o in sample])
    failed = sum(
        1 for outcome, answer in zip(sample, expected)
        if outcome.exchanges[-1][2] != json.dumps(
            encode(answer), sort_keys=True, separators=(",", ":")).encode())
    return len(sample), failed


def verify_streams(client, seed: int) -> tuple[int, int]:
    """(attempted, failed): one session per online codec must close the
    same segments, byte for byte, as a local encoder fed the same ticks."""
    failed = 0
    for index in range(len(STREAM_CODECS)):
        spec = stream_session(seed, VERIFY_SESSION + index)
        outcome = Outcome("stream", spec, CLOCK())
        fire(client, outcome)
        if not check_outcome(outcome):
            failed += 1
            continue
        remote = [segment.to_segment()
                  for _, _, body in outcome.exchanges[1:]
                  for segment in _decode(body, StreamPushResponse).segments]
        request = decode(spec["open"], expect=StreamOpenRequest)
        encoder = STREAMING_ALGORITHMS[
            registry.compressor_info(request.method).streaming](
                request.error_bound, request.max_segment_length)
        local = []
        for chunk in spec["chunks"]:
            local += encoder.extend(tuple(chunk))
        local += encoder.flush()
        if segments_payload(remote) != segments_payload(local):
            failed += 1
    return len(STREAM_CODECS), failed
