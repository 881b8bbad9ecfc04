"""The seeded payload generator: reproducible, cold never repeats, warm
stays in its pool."""

from __future__ import annotations

import json

from repro.api.codec import decode
from repro.api.requests import StreamOpenRequest
from repro.server.loadgen import LoadgenConfig, build_schedule

import payloads


def draw(source, count: int) -> list[str]:
    return [json.dumps(source.next(), sort_keys=True) for _ in range(count)]


def test_same_seed_same_bytes_other_seed_other_bytes():
    for make in (payloads.ColdPayloads, payloads.WarmPayloads,
                 payloads.StreamPayloads):
        assert draw(make(3), 40) == draw(make(3), 40)
        assert draw(make(3), 40) != draw(make(4), 40)
    assert payloads.grid_requests(3) == payloads.grid_requests(3)
    assert payloads.grid_requests(3) != payloads.grid_requests(4)


def test_cold_payloads_never_repeat_and_stay_in_range():
    drawn = draw(payloads.ColdPayloads(7), 2000)
    assert len(set(drawn)) == len(drawn)
    bounds = [json.loads(item)[1]["error_bound"] for item in drawn]
    assert len(set(bounds)) == len(bounds)
    assert all(payloads.COLD_BASE <= b < 0.08 for b in bounds)
    kinds = [json.loads(item)[0] for item in drawn]
    assert kinds.count("forecast") == 3 * kinds.count("compress")


def test_warm_payloads_stay_in_the_pool():
    pool = {json.dumps(item, sort_keys=True)
            for item in payloads.warm_pool(5)}
    assert len(pool) == 22
    drawn = draw(payloads.WarmPayloads(5), 1000)
    assert set(drawn) <= pool
    kinds = [json.loads(item)[0] for item in drawn]
    assert kinds.count("compress") == 9 * kinds.count("forecast")


def test_stream_sessions_round_robin_over_online_codecs():
    sessions = payloads.StreamPayloads(2)
    methods = [decode(sessions.next()[1]["open"],
                      expect=StreamOpenRequest).method for _ in range(6)]
    assert methods == list(payloads.STREAM_CODECS) * 2
    spec = payloads.stream_session(2, 0)
    assert [len(c) for c in spec["chunks"]] == \
        [payloads.STREAM_TICKS] * payloads.STREAM_PUSHES


def test_replay_schedule_uses_each_cold_payload_once(tmp_path):
    rate, duration = 15.0, 14.0
    path = str(tmp_path / "replay.jsonl")
    count = payloads.arrivals_bound(rate, duration)
    payloads.write_replay(path, payloads.ColdPayloads(1), count)
    schedule = build_schedule(LoadgenConfig(duration_s=duration,
                                            rate_hz=rate, seed=1,
                                            replay=path))
    assert len(schedule) <= count
    sent = [json.dumps(payload, sort_keys=True)
            for _, _, payload in schedule]
    assert len(set(sent)) == len(sent)
