"""Loadgen harness suite: schedules, replay, SLO gate, live drives.

The end-to-end tests boot a real in-process daemon (``self_hosted``) and
speak HTTP over real sockets — short, fixed-seed runs, so the suite stays
fast while still exercising the full client-threads → batchers →
task-graph path.  The overload test deliberately saturates a one-slot
server and asserts the backpressure contract: sheds are counted (not
errored) and nobody waits out the client timeout.
"""

import json
import time

import pytest

from repro.server.loadgen import (DEFAULT_MIX, ENDPOINTS, LoadgenConfig,
                                  SloConfig, _server_stats, build_schedule,
                                  check_serve_report, load_replay,
                                  run_loadgen, self_hosted,
                                  synthesized_pools)

# -- schedule construction -----------------------------------------------------


def test_build_schedule_is_deterministic_per_seed():
    config = LoadgenConfig(duration_s=2.0, rate_hz=40.0, seed=7)
    first = build_schedule(config, length=256)
    second = build_schedule(config, length=256)
    assert first == second
    other = build_schedule(
        LoadgenConfig(duration_s=2.0, rate_hz=40.0, seed=8), length=256)
    assert first != other


def test_schedule_offsets_are_sorted_within_duration():
    config = LoadgenConfig(duration_s=2.0, rate_hz=40.0, seed=0)
    schedule = build_schedule(config, length=256)
    offsets = [offset for offset, _, _ in schedule]
    assert offsets == sorted(offsets)
    assert all(0.0 <= offset < config.duration_s for offset in offsets)
    # ~rate * duration arrivals, Poisson-noisy but the right magnitude
    assert 40 <= len(schedule) <= 160


def test_schedule_respects_the_mix():
    only_compress = LoadgenConfig(duration_s=2.0, rate_hz=40.0,
                                  mix=(("compress", 1.0),))
    kinds = {kind for _, kind, _ in build_schedule(only_compress, 256)}
    assert kinds == {"compress"}
    mixed = LoadgenConfig(duration_s=5.0, rate_hz=60.0, mix=DEFAULT_MIX)
    kinds = {kind for _, kind, _ in build_schedule(mixed, 256)}
    assert "compress" in kinds and "forecast" in kinds


def test_empty_mix_is_rejected():
    with pytest.raises(ValueError, match="no known kind"):
        build_schedule(LoadgenConfig(mix=(("compress", 0.0),)), 256)


def test_synthesized_pools_cover_every_endpoint():
    pools = synthesized_pools(256)
    assert set(pools) == set(ENDPOINTS)
    for kind, payloads in pools.items():
        assert payloads, f"empty pool for {kind}"
        if kind == "stream":
            # stream specs are session scripts, not single tagged payloads:
            # a tagged open request plus the chunk schedule to push
            for spec in payloads:
                assert spec["open"]["type"] == "StreamOpenRequest"
                assert spec["chunks"] and all(spec["chunks"])
        else:
            assert all("type" in payload for payload in payloads)


# -- replay traces -------------------------------------------------------------


def _replay_line(kind, payload):
    return json.dumps({"endpoint": kind, "payload": payload})


def test_load_replay_round_trips(tmp_path):
    pools = synthesized_pools(256)
    path = tmp_path / "trace.jsonl"
    path.write_text(_replay_line("compress", pools["compress"][0]) + "\n" +
                    "\n" +  # blank lines are skipped
                    _replay_line("forecast", pools["forecast"][0]) + "\n")
    items = load_replay(str(path))
    assert [kind for kind, _ in items] == ["compress", "forecast"]
    # a replayed schedule cycles the trace in file order
    config = LoadgenConfig(duration_s=1.0, rate_hz=30.0,
                           replay=str(path))
    schedule = build_schedule(config)
    kinds = [kind for _, kind, _ in schedule]
    assert kinds[:4] == ["compress", "forecast", "compress", "forecast"]


def test_load_replay_rejects_unknown_endpoint(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(_replay_line("teleport", {"type": "CompressRequest"})
                    + "\n")
    with pytest.raises(ValueError, match="unknown endpoint"):
        load_replay(str(path))


def test_load_replay_rejects_empty_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="no requests"):
        load_replay(str(path))


# -- the SLO gate --------------------------------------------------------------


def _passing_report():
    return {
        "schema": 1,
        "config": LoadgenConfig(slo=SloConfig(max_p99_ms=100.0,
                                              min_throughput_rps=5.0,
                                              max_error_rate=0.0,
                                              max_shed_rate=0.5)).to_dict(),
        "totals": {"sent": 100, "ok": 98, "shed": 2, "timeouts": 0,
                   "errors": 0, "throughput_rps": 20.0, "shed_rate": 0.02,
                   "error_rate": 0.0},
        "latency_ms": {"p50": 10.0, "p95": 40.0, "p99": 80.0,
                       "mean": 15.0, "max": 90.0},
        "server": {"requests": 100.0, "shed": 2.0},
    }


def test_check_passes_a_healthy_report():
    assert check_serve_report(_passing_report()) == []


def test_check_flags_missing_sections():
    failures = check_serve_report({"schema": 1})
    assert len(failures) == len(("config", "totals", "latency_ms", "server"))
    assert any("totals" in failure for failure in failures)


def test_check_flags_each_slo_breach():
    report = _passing_report()
    report["latency_ms"]["p99"] = 150.0
    report["totals"]["throughput_rps"] = 1.0
    report["totals"]["error_rate"] = 0.10
    report["totals"]["shed_rate"] = 0.90
    failures = check_serve_report(report)
    assert len(failures) == 4
    joined = " | ".join(failures)
    assert "p99" in joined and "throughput" in joined
    assert "error rate" in joined and "shed rate" in joined


def test_check_flags_a_request_riding_out_the_full_timeout():
    report = _passing_report()
    # timeout_s is 30 in the default config: a 30s max latency means some
    # request was never shed and burned the whole budget
    report["latency_ms"]["max"] = 30_000.0
    failures = check_serve_report(report)
    assert any("backpressure failed to shed" in failure
               for failure in failures)


def test_check_flags_an_empty_run():
    report = _passing_report()
    report["totals"]["sent"] = 0
    assert any("no requests" in failure
               for failure in check_serve_report(report))


# -- server-side deltas --------------------------------------------------------


def _metricz(hit, miss, requests):
    return {"counters": {"runtime.probe.hit": hit,
                         "runtime.probe.miss": miss,
                         "server.requests": requests},
            "gauges": {}, "histograms": {}}


def test_server_stats_hit_ratio_is_the_runs_probe_delta():
    # cumulative totals before the run must not leak into its ratio
    stats = _server_stats(_metricz(hit=10, miss=30, requests=5),
                          _metricz(hit=16, miss=32, requests=25))
    assert stats["cache_hit_ratio"] == 6 / 8
    assert stats["requests"] == 20


def test_server_stats_hit_ratio_is_none_without_probes():
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    assert _server_stats(empty, empty)["cache_hit_ratio"] is None
    same = _metricz(hit=3, miss=1, requests=4)
    assert _server_stats(same, same)["cache_hit_ratio"] is None


# -- the CLI -------------------------------------------------------------------


def test_cli_loadgen_self_host_writes_report_and_checks(tmp_path, capsys):
    from repro.cli import main

    output = tmp_path / "BENCH_serve.json"
    argv = ["loadgen", "--self-host", "--duration", "1", "--rate", "15",
            "--clients", "4", "--length", "256", "--seed", "2",
            "--mix", "compress=1.0", "--output", str(output), "--check",
            "--max-p99-ms", "20000", "--min-throughput", "0.5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    report = json.loads(output.read_text())
    assert report["schema"] == 1
    assert report["totals"]["ok"] > 0
    assert report["config"]["mix"] == {"compress": 1.0}


def test_cli_loadgen_rejects_a_malformed_mix(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["loadgen", "--self-host", "--mix", "teleport=1.0"])


# -- end to end over real sockets ----------------------------------------------


def test_loadgen_drives_a_live_server_and_reports():
    config = LoadgenConfig(duration_s=1.5, rate_hz=20.0, clients=6, seed=3,
                           mix=(("compress", 0.9), ("forecast", 0.1)),
                           timeout_s=30.0,
                           slo=SloConfig(max_p99_ms=20_000.0,
                                         min_throughput_rps=0.5))
    with self_hosted(length=256, request_timeout_s=30.0) as server:
        report = run_loadgen(config, host=server.host, port=server.port,
                             length=256)
    totals = report["totals"]
    assert totals["sent"] == totals["scheduled"] == len(
        build_schedule(config, 256))
    assert totals["ok"] == totals["sent"]  # nothing shed, timed out, errored
    assert totals["shed"] == totals["timeouts"] == totals["errors"] == 0
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
    assert report["server"]["requests"] >= totals["sent"]
    assert report["server"]["batches"] > 0
    assert 0.0 <= report["server"]["cache_hit_ratio"] <= 1.0
    assert set(report["per_kind"]) == {"compress", "forecast"}
    assert report["config"]["seed"] == 3
    assert check_serve_report(report) == []


def test_loadgen_under_overload_sheds_instead_of_hanging():
    config = LoadgenConfig(duration_s=1.5, rate_hz=60.0, clients=12, seed=1,
                           mix=(("compress", 1.0),), timeout_s=10.0,
                           warmup=False,
                           slo=SloConfig(max_p99_ms=60_000.0,
                                         min_throughput_rps=0.0,
                                         max_error_rate=1.0))
    with self_hosted(length=256, max_batch=1, max_queue=1,
                     request_timeout_s=2.0) as server:
        original = server._compress_batcher._execute

        def slow(requests):
            time.sleep(0.3)  # each one-request batch hogs the dispatcher
            return original(requests)

        server._compress_batcher._execute = slow
        started = time.monotonic()
        report = run_loadgen(config, host=server.host, port=server.port,
                             length=256)
        elapsed = time.monotonic() - started
    totals = report["totals"]
    # the saturated queue shed most of the offered load with 429s ...
    assert totals["shed"] > 0
    assert report["server"]["shed"] >= totals["shed"]
    # ... immediately: no request waited out the 10s client budget, so
    # the drive finishes in bounded time and the SLO gate stays green
    assert report["latency_ms"]["max"] < config.timeout_s * 1e3
    assert elapsed < config.duration_s + config.timeout_s
    assert check_serve_report(report) == []


# -- the stream kind -----------------------------------------------------------


def test_stream_replay_round_trips(tmp_path):
    spec = synthesized_pools(256)["stream"][0]
    path = tmp_path / "trace.jsonl"
    path.write_text(_replay_line("stream", spec) + "\n")
    items = load_replay(str(path))
    assert items == [("stream", spec)]


def test_stream_replay_rejects_a_chunkless_spec(tmp_path):
    spec = dict(synthesized_pools(256)["stream"][0])
    spec["chunks"] = []
    path = tmp_path / "trace.jsonl"
    path.write_text(_replay_line("stream", spec) + "\n")
    with pytest.raises(ValueError, match="chunks"):
        load_replay(str(path))


def test_loadgen_drives_stream_sessions_end_to_end():
    # a pure-stream mix: every scheduled arrival is one whole session
    # (open -> chunk pushes -> close) and must drain cleanly
    config = LoadgenConfig(duration_s=1.5, rate_hz=8.0, clients=4, seed=5,
                           mix=(("stream", 1.0),), timeout_s=30.0,
                           slo=SloConfig(max_p99_ms=20_000.0,
                                         min_throughput_rps=0.5))
    with self_hosted(length=256, request_timeout_s=30.0) as server:
        report = run_loadgen(config, host=server.host, port=server.port,
                             length=256)
        assert server.sessions.live() == 0  # every session was closed
    totals = report["totals"]
    assert totals["ok"] == totals["sent"] > 0
    assert totals["shed"] == totals["timeouts"] == totals["errors"] == 0
    assert set(report["per_kind"]) == {"stream"}
    # the server-side counters saw the sessions the drive opened
    assert report["server"]["stream_opened"] >= totals["ok"]
    assert report["server"]["stream_segments"] > 0
    assert report["server"]["stream_live"] == 0
    # each client thread's pushes reuse its kept-alive connection
    assert 0 < report["server"]["connections"] < report["server"]["requests"]
    assert check_serve_report(report) == []


def test_loadgen_stream_sheds_at_the_admission_cap():
    # a one-session server under a stream burst: overflow opens are shed
    # as 429s (counted, not errored) and the drive still drains
    config = LoadgenConfig(duration_s=1.0, rate_hz=40.0, clients=8, seed=6,
                           mix=(("stream", 1.0),), timeout_s=10.0,
                           warmup=False,
                           slo=SloConfig(max_p99_ms=60_000.0,
                                         min_throughput_rps=0.0,
                                         max_shed_rate=1.0))
    with self_hosted(length=256, max_sessions=1,
                     request_timeout_s=10.0) as server:
        report = run_loadgen(config, host=server.host, port=server.port,
                             length=256)
    totals = report["totals"]
    assert totals["sent"] == totals["scheduled"]
    assert totals["shed"] > 0
    assert totals["errors"] == 0
    assert totals["ok"] + totals["shed"] + totals["timeouts"] \
        == totals["sent"]
    assert check_serve_report(report) == []
