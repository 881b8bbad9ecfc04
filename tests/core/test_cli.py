"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_lists_everything(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    for token in ("ETTm1", "Wind", "PMC", "SZ", "GORILLA", "Arima",
                  "Transformer", "0.01", "0.8"):
        assert token in out


def test_compress_reports_ratio(capsys):
    assert main(["compress", "--dataset", "Weather", "--method", "PMC",
                 "--error-bound", "0.2", "--length", "2000"]) == 0
    out = capsys.readouterr().out
    assert "compression ratio" in out
    assert "TE (NRMSE)" in out
    assert "segments" in out


def test_compress_accepts_every_grid_codec(capsys):
    # the --method choices are a registry query, not the paper tuple:
    # new codecs must be reachable from the CLI the moment they register
    for method in ("CAMEO", "LFZIP"):
        assert main(["compress", "--dataset", "Weather", "--method", method,
                     "--error-bound", "0.2", "--length", "1000"]) == 0
        assert "compression ratio" in capsys.readouterr().out


def test_sweep_prints_all_bounds(capsys):
    assert main(["sweep", "--dataset", "ETTm1", "--length", "1500"]) == 0
    out = capsys.readouterr().out
    assert out.count("PMC") == 13
    assert "GORILLA lossless CR" in out


def test_unknown_dataset_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compress", "--dataset", "Nope",
                                   "--method", "PMC"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_grid_runs_and_reports_manifest(capsys, tmp_path):
    argv = ["grid", "--datasets", "ETTm1", "--models", "Arima",
            "--methods", "PMC", "--error-bounds", "0.1", "0.4",
            "--length", "1500", "--workers", "1",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "run manifest" in out
    assert "executed" in out and "cached" in out
    assert "records digest" in out
    digest = [line for line in out.splitlines()
              if line.startswith("records digest")][0]

    # warm rerun: everything served from cache, identical records
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 executed" in warm
    assert digest in warm


def test_grid_keep_going_isolates_injected_failure(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "forecast:SWING")
    argv = ["grid", "--datasets", "ETTm1", "--models", "Arima",
            "--methods", "PMC", "SWING", "--error-bounds", "0.1",
            "--length", "1500", "--workers", "1",
            "--cache-dir", str(tmp_path)]

    # keep-going: exit 0, the failing cell listed in the manifest, the
    # healthy cells still summarized
    assert main(argv + ["--keep-going"]) == 0
    out = capsys.readouterr().out
    assert "failures  : 1 failed" in out
    assert "InjectedFailure" in out
    assert "records digest" in out

    # fail-fast (healthy cells warm from the shared cache): exit 1 with
    # the failing job named
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "forecast" in captured.err
    assert "--keep-going" in captured.err


def test_grid_retry_and_timeout_flags_parse():
    args = build_parser().parse_args(
        ["grid", "--timeout", "2.5", "--retries", "3", "--keep-going"])
    assert args.timeout == 2.5
    assert args.retries == 3
    assert args.keep_going is True


def test_grid_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["grid", "--models", "NotAModel"])


def test_evaluate_fast_model(capsys):
    assert main(["evaluate", "--dataset", "ETTm1", "--model", "Arima",
                 "--length", "1500", "--error-bounds", "0.1", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "baseline NRMSE" in out
    assert "PMC" in out and "SWING" in out and "SZ" in out


# -- observability surface ---------------------------------------------------


def _read_jsonl(path):
    import json

    return [json.loads(line) for line in path.read_text().splitlines()]


def test_grid_trace_writes_merged_trace_and_manifest(capsys, tmp_path):
    trace_dir = tmp_path / "run"
    argv = ["grid", "--datasets", "ETTm1", "--models", "Arima",
            "--methods", "PMC", "--error-bounds", "0.1", "0.4",
            "--length", "1500", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace_dir)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace_dir}" in out

    records = _read_jsonl(trace_dir / "trace.jsonl")
    job_spans = [r for r in records
                 if r.get("type") == "span" and r.get("name") == "job"]
    import json

    manifest = json.loads((trace_dir / "manifest.json").read_text())
    # one span per job attempt, and the manifest agrees
    assert len(job_spans) == manifest["executed"]
    assert len(manifest["attempts"]) == len(job_spans)
    assert all(r["outcome"] == "ok" for r in manifest["attempts"])
    assert any(r.get("type") == "metrics" for r in records)

    # the trace subcommand summarizes the run directory
    assert main(["trace", str(trace_dir)]) == 0
    summary = capsys.readouterr().out
    assert "span tree" in summary
    assert "slowest job attempts" in summary
    assert "compress.PMC.calls" in summary


def test_grid_trace_with_only_failures_still_summarizes(capsys, tmp_path,
                                                        monkeypatch):
    # EVERY cell fails: the manifest holds only FailureRecords, and both
    # the grid summary and `repro-eval trace` must render, not raise
    monkeypatch.setenv("REPRO_INJECT_FAILURE", "forecast:")
    trace_dir = tmp_path / "run"
    argv = ["grid", "--datasets", "ETTm1", "--models", "Arima",
            "--methods", "PMC", "--error-bounds", "0.1",
            "--length", "1500", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--keep-going",
            "--trace", str(trace_dir)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "failed" in out
    assert "n/a" in out  # no TFE without a baseline

    assert main(["trace", str(trace_dir)]) == 0
    summary = capsys.readouterr().out
    assert "failed" in summary
    assert "InjectedFailure" in summary
    assert "failure hotspots:" in summary


def test_trace_on_missing_directory_reports_gracefully(capsys, tmp_path):
    assert main(["trace", str(tmp_path / "nowhere")]) == 0
    out = capsys.readouterr().out
    assert "no trace.jsonl or manifest.json" in out


def test_trace_flags_parse():
    args = build_parser().parse_args(["grid", "--trace"])
    assert args.trace == ".trace"
    args = build_parser().parse_args(["grid", "--trace", "out/dir"])
    assert args.trace == "out/dir"
    args = build_parser().parse_args(["grid"])
    assert args.trace is None
    args = build_parser().parse_args(["bench", "--trace", "--check"])
    assert args.trace == ".trace"
    args = build_parser().parse_args(["trace", "some/dir", "--top", "3"])
    assert args.run_dir == "some/dir"
    assert args.top == 3


@pytest.mark.parametrize("suite", ["compression", "forecasting"])
def test_bench_check_leaves_the_committed_baseline_alone(
        suite, tmp_path, monkeypatch, capsys):
    import repro.bench as bench

    report = {"suite": suite, "obs_overhead": {"max_percent": 2.0}}
    for name in ("run_bench", "run_forecasting_bench"):
        monkeypatch.setattr(bench, name, lambda config, progress: report)
    for name in ("check_report", "check_forecasting_report"):
        monkeypatch.setattr(bench, name, lambda report, floor: [])
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--suite", suite, "--check"]) == 0
    assert "check passed" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    # an explicit --output still writes; no --check regenerates the baseline
    assert main(["bench", "--suite", suite, "--check",
                 "--output", "check.json"]) == 0
    assert main(["bench", "--suite", suite]) == 0
    baseline = (bench.DEFAULT_OUTPUT if suite == "compression"
                else bench.DEFAULT_FORECASTING_OUTPUT)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["check.json", baseline])


# -- typed-API rerouting -------------------------------------------------------


def test_compress_json_is_the_wire_payload(capsys):
    import json

    from repro.api import CompressResponse, loads

    assert main(["compress", "--dataset", "Weather", "--method", "PMC",
                 "--error-bound", "0.2", "--length", "2000", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    payload = json.loads(out)
    assert payload["type"] == "CompressResponse"
    response = loads(out)
    assert isinstance(response, CompressResponse)
    assert response.dataset == "Weather"
    assert response.compression_ratio > 1


def test_compress_human_output_matches_codec_round_trip(capsys):
    # the human-readable numbers are printed OFF the decoded wire payload,
    # so they must agree with --json exactly
    args = ["compress", "--dataset", "ETTm1", "--method", "SWING",
            "--error-bound", "0.1", "--length", "1500"]
    assert main(args) == 0
    human = capsys.readouterr().out
    assert main(args + ["--json"]) == 0
    from repro.api import loads

    response = loads(capsys.readouterr().out.strip())
    assert f"{response.compressed_size} bytes" in human
    assert f"{response.compression_ratio:.2f}x" in human
    assert f"{response.te['NRMSE']:.5f}" in human


def test_trace_json_round_trips(capsys, tmp_path):
    from repro.api import TraceResponse, loads

    assert main(["trace", str(tmp_path / "nowhere"), "--json"]) == 0
    response = loads(capsys.readouterr().out.strip())
    assert isinstance(response, TraceResponse)
    assert any("no trace.jsonl" in line for line in response.lines)


def test_serve_is_a_first_class_subcommand(capsys):
    # `serve` must appear in the command listing...
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "serve" in capsys.readouterr().out
    # ...reject unknown flags like any other subcommand (no argv
    # intercept — the subparser owns the full repro-serve surface)...
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--bogus-flag"])
    assert excinfo.value.code == 2
    assert "--bogus-flag" in capsys.readouterr().err
    # ...and expose the shared serve options, leading optionals included
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--max-batch" in out and "--session-ttl" in out
