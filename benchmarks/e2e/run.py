"""End-to-end, layer-by-layer benchmark of the repro pipeline and daemon.

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the JSON result)::

    python3 benchmarks/e2e/run.py --workload serve_cold --seed 1 \\
        --seconds 20 --trace 0 [--out runs.jsonl] [--quick]

All four workloads, each untraced and then traced::

    python3 benchmarks/e2e/run.py [--seed 0] [--seconds 20] [--quick]

Repeated runs (the spread check, and the committed baseline), and the
parent-versus-change verdicts over such runs::

    python3 benchmarks/e2e/run.py sweep --seeds 10 --sets 2 --out FILE
    python3 benchmarks/e2e/run.py compare PARENT CHANGE

See README.md in this directory for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # measure the checkout's own sources, never an installed copy
    sys.exit(f"run.py: no program sources at {ROOT}/src/repro")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api.codec import encode  # noqa: E402
from repro.api.requests import CompressRequest, ForecastRequest  # noqa: E402
from repro.bench import machine_metadata  # noqa: E402
from repro.server.client import ReproClient  # noqa: E402
from repro.server.loadgen import LoadgenConfig, build_schedule  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import verdict  # noqa: E402
from payloads import (CODECS, COLD_STEP, MODELS, STREAM_CODECS,  # noqa: E402
                      WARMUP_BASE, ColdPayloads, StreamPayloads,
                      WarmPayloads, arrivals_bound, warm_pool, write_replay)
from tracing import CLOCK  # noqa: E402
from traffic import (Outcome, closed_loop, fire,  # noqa: E402
                     latency_summary, open_loop)

WORKLOADS = ("grid_cold", "serve_cold", "serve_warm", "stream")
#: end-to-end metrics of an untraced run: (name, unit).  ``latency_ms``
#: is the best grid rep for grid_cold (few CPU-bound reps, where a shared
#: host only ever adds time) and the open-loop median for the serving
#: workloads.  Tail latency and closed-loop capacity are printed but not
#: gated: a grid run's reps support no tail percentile, and capacity moves
#: by more than any usable bound (README.md).
END_TO_END = (("setup_s", "s"), ("latency_ms", "ms"), ("peak_rss_mb", "MB"))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(HERE, ".work")
GRID_WORKER = os.path.join(HERE, "grid_worker.py")
DAEMON = os.path.join(HERE, "daemon.py")

#: fresh launches per untraced run; setup_s is their median
LAUNCHES = 3
#: share of a serving run's seconds spent in the open loop; the rest
#: is the closed loop that measures capacity
OPEN_SHARE = 0.8
#: open-loop arrival rates (operations/s), fixed: never re-tuned per
#: commit.  Each is low enough that the generator's two client threads
#: do not queue: at 15/s, serve_warm's slow answers (p95 near 100 ms)
#: kept both busy and the generator ran late past MAX_LATE_P90_MS in 12
#: of 20 runs (README.md), so serve_warm runs at 8/s.
RATES = {"serve_cold": 15.0, "serve_warm": 8.0, "stream": 8.0}
#: grid_cold runs one timed rep per this many seconds of ``--seconds``
#: (at least MIN_GRID_REPS): a fixed count, so that a faster commit
#: draws no more reps than its parent
GRID_REP_S = 4.0
MIN_GRID_REPS = 3
SERVE_LENGTH = 4_000
#: the grid runs at the paper's length; its warm-up grid is shorter
GRID_WARM_LENGTH = 2_000
QUICK_GRID_LENGTH = 1_500
QUICK_WARM_LENGTH = 600
#: an open-loop phase is invalid when the generator ran this late
MAX_LATE_P90_MS = 20.0
CLIENT_TIMEOUT_S = 20.0
#: a single run aborts (non-zero exit, no result) past this many seconds
RUN_LIMIT_S = 170
#: first session index of the stream workload's set-up sessions
WARMUP_SESSION = 800_000
HOST = "127.0.0.1"


class Failed(RuntimeError):
    """The run could not complete; no result is printed."""


# -- processes ----------------------------------------------------------------


def _spawn(args: list[str], work: str, tag: str, **options
           ) -> subprocess.Popen:
    log = open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8")
    try:
        return subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=log, text=True, **options)
    finally:
        log.close()


def _reap(proc: subprocess.Popen, stop: int | None = None) -> None:
    """Stop a child (with signal ``stop`` first) and wait until it ended."""
    if stop is not None and proc.poll() is None:
        proc.send_signal(stop)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def _line(proc: subprocess.Popen, work: str, tag: str) -> str:
    line = proc.stdout.readline()
    if not line:
        with open(os.path.join(work, f"{tag}.log"), encoding="utf-8") as log:
            raise Failed(f"{tag} exited early:\n{log.read()[-2000:]}")
    return line


class Daemon:
    """One ``repro-serve`` process behind the benchmark's launcher."""

    def __init__(self, work: str, tag: str, trace: bool) -> None:
        self.work, self.tag = work, tag
        self.report = os.path.join(work, f"{tag}-report.json")
        self.spans = os.path.join(work, f"{tag}-spans.json") if trace else None
        self.args = ([sys.executable, "-u", DAEMON, self.report]
                     + (["--trace", self.spans] if trace else [])
                     + ["--", "--host", HOST, "--port", "0",
                        "--length", str(SERVE_LENGTH),
                        "--cache-dir", os.path.join(work, f"{tag}-cache")])
        self.proc: subprocess.Popen | None = None
        self.client: ReproClient | None = None

    def start(self) -> None:
        self.proc = _spawn(self.args, self.work, self.tag)
        while True:
            match = re.search(r"listening on http://[^/]*:(\d+)/",
                              _line(self.proc, self.work, self.tag))
            if match:
                break
        self.client = ReproClient(HOST, int(match.group(1)),
                                  timeout=CLIENT_TIMEOUT_S)
        deadline = CLOCK() + 10.0
        while True:
            try:
                self.client.healthz()
                return
            except OSError:
                if CLOCK() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> float:
        """Stop the daemon as a user would; returns its peak RSS (MB)."""
        _reap(self.proc, signal.SIGINT)
        status, self.proc = self.proc.returncode, None
        if not os.path.exists(self.report):
            with open(os.path.join(self.work, f"{self.tag}.log"),
                      encoding="utf-8") as log:
                raise Failed(f"{self.tag} ended with status {status} and "
                             f"no report:\n{log.read()[-2000:]}")
        with open(self.report, encoding="utf-8") as stream:
            return json.load(stream)["peak_rss_mb"]

    def kill(self) -> None:
        """End a daemon whose set-up was all that was measured."""
        _reap(self.proc, signal.SIGKILL)
        self.proc = None


# -- workloads ----------------------------------------------------------------


def _prepare(workload: str, client: ReproClient, seed: int
             ) -> list[Outcome]:
    """The set-up traffic: pre-training plus a warm-up pass."""
    ops: list[tuple[str, dict]] = []
    if workload != "stream":
        ops += [("forecast", encode(ForecastRequest(model, "ETTm1")))
                for model in MODELS]
    if workload == "serve_cold":
        # first calls of every codec and model, at bounds below the
        # measured ones
        ops += [("compress", encode(CompressRequest(
            "ETTm1", codec, round(WARMUP_BASE + i * COLD_STEP, 10))))
            for i, codec in enumerate(CODECS)]
        ops += [("forecast", encode(ForecastRequest(
            model, "ETTm1", method="PMC", error_bound=WARMUP_BASE)))
            for model in MODELS]
    elif workload == "serve_warm":
        ops += warm_pool(seed)
    elif workload == "stream":
        sessions = StreamPayloads(seed, first=WARMUP_SESSION)
        ops += [sessions.next() for _ in STREAM_CODECS]
    outcomes = []
    for kind, payload in ops:
        outcome = Outcome(kind, payload, CLOCK())
        fire(client, outcome)
        outcomes.append(outcome)
    return outcomes


def _payloads(workload: str, seed: int):
    if workload == "serve_cold":
        return ColdPayloads(seed)
    if workload == "serve_warm":
        return WarmPayloads(seed)
    return StreamPayloads(seed)


def run_serving(workload: str, seed: int, seconds: float, trace: bool,
                quick: bool, work: str) -> dict:
    launches = 1 if trace or quick else LAUNCHES
    setups: list[float] = []
    attempted = failed = 0
    daemon = None
    try:
        for launch in range(launches):
            daemon = Daemon(work, f"daemon{launch}",
                            trace and launch == launches - 1)
            start = CLOCK()
            daemon.start()
            prepared = _prepare(workload, daemon.client, seed)
            setups.append(CLOCK() - start)
            attempted += len(prepared)
            failed += sum(1 for o in prepared if not checks.check_outcome(o))
            if launch < launches - 1:
                daemon.kill()

        rate = RATES[workload]
        open_s = seconds * OPEN_SHARE
        payloads = _payloads(workload, seed)
        replay = os.path.join(work, "replay.jsonl")
        write_replay(replay, payloads, arrivals_bound(rate, open_s))
        schedule = build_schedule(LoadgenConfig(
            duration_s=open_s, rate_hz=rate, seed=seed,
            replay=replay))
        opened, phase_start, _ = open_loop(daemon.client, schedule)
        closed, closed_start, phase_end = closed_loop(
            daemon.client, payloads, seconds - open_s)
        if workload == "stream":
            done, bad = checks.verify_streams(daemon.client, seed)
            attempted, failed = attempted + done, failed + bad
        peak_rss = daemon.stop()
    finally:
        if daemon is not None and daemon.proc is not None:
            daemon.kill()

    outcomes = opened + closed
    attempted += len(outcomes)
    failed += sum(1 for o in outcomes if not checks.check_outcome(o))
    if workload != "stream":
        done, bad = checks.check_compress_samples(outcomes, seed,
                                                  SERVE_LENGTH)
        attempted, failed = attempted + done, failed + bad
    latency = latency_summary(opened)
    closed_http = sum(1 for o in closed for _, status, _ in o.exchanges
                      if 200 <= status < 300)
    result = {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_ms": latency["p50_ms"],
            "peak_rss_mb": peak_rss,
        },
        "info": {**latency, "setups_s": setups, "rate": rate,
                 "capacity_rps": closed_http / (phase_end - closed_start),
                 "valid": (latency["late_p90_ms"] <= MAX_LATE_P90_MS
                           and latency["top_percentile"] is not None
                           and latency["top_percentile"] >= 90.0)},
    }
    if trace:
        spans = layers.load(daemon.spans)
        operations = (len(outcomes) if workload == "stream"
                      else sum(len(o.exchanges) for o in outcomes))
        _add_layers(result, layers.window(spans["spans"], phase_start,
                                          phase_end), spans, operations)
    return result


def run_grid(seed: int, seconds: float, trace: bool, quick: bool,
             work: str) -> dict:
    launches = 1 if trace or quick else LAUNCHES
    length, warm = ((QUICK_GRID_LENGTH, QUICK_WARM_LENGTH) if quick
                    else (0, GRID_WARM_LENGTH))
    spans_path = os.path.join(work, "grid-spans.json")
    count = max(MIN_GRID_REPS, int(seconds // GRID_REP_S))
    setups: list[float] = []
    for launch in range(launches):
        last = launch == launches - 1
        args = [sys.executable, GRID_WORKER, str(seed), str(length),
                str(warm), work] + ([spans_path] if trace and last else [])
        start = CLOCK()
        proc = _spawn(args, work, f"grid{launch}", stdin=subprocess.PIPE)
        answered = False
        try:
            _line(proc, work, f"grid{launch}")
            setups.append(CLOCK() - start)
            proc.stdin.write(f"go {count}\n" if last else "exit\n")
            proc.stdin.flush()
            if last:
                report = json.loads(_line(proc, work, f"grid{launch}"))
            answered = True
        finally:
            # an answered worker exits by itself (after writing its spans)
            _reap(proc, None if answered else signal.SIGKILL)
    reps = report["reps"]
    times = [rep[0] for rep in reps]
    cells = sum(rep[1] for rep in reps)
    expected = sum(rep[2] for rep in reps)
    digests = sorted({rep[3] for rep in reps})
    result = {
        # every expected cell is one operation; the digest check one more
        "attempted": expected + 1,
        "failed": expected - cells + (len(digests) != 1),
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_ms": 1e3 * min(times),
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "info": {"reps_s": times, "digests": digests, "setups_s": setups,
                 "median_rep_ms": 1e3 * statistics.median(times),
                 "capacity_rps": cells / sum(times), "valid": True},
    }
    if trace:
        spans = layers.load(spans_path)
        _add_layers(result, spans["spans"], spans, len(reps))
    return result


def _add_layers(result: dict, spans: list, dump: dict,
                operations: int) -> None:
    summary = layers.table(spans, dump["per_span_s"], dump["extra_s"])
    result["e2e"] = result["metrics"]
    result["layers"] = {
        "operations": operations,
        "rows": {name: {"calls": row["calls"],
                        "self_ms": 1e3 * row["self_s"],
                        "share_pct": row["share_pct"]}
                 for name, row in summary["rows"].items()},
        "table": layers.render(summary, operations),
        "queue_wait_p50_ms": summary["queue_wait_p50_ms"],
    }
    result["metrics"] = layers.per_layer_metrics(summary, operations)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    """One measured run of one workload in a fresh work directory."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        if workload == "grid_cold":
            result = run_grid(seed, seconds, trace, quick, work)
        else:
            result = run_serving(workload, seed, seconds, trace, quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, correct=result["failed"] == 0)
    return result


# -- reporting ----------------------------------------------------------------


def _units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in layers.PER_LAYER}
    return dict(END_TO_END)


def describe(result: dict) -> list[str]:
    """Human-readable lines of one run (printed before the JSON line)."""
    mode = "traced" if result["trace"] else "untraced"
    lines = [f"== {result['workload']} seed {result['seed']} ({mode}): "
             f"{result['attempted'] - result['failed']}/"
             f"{result['attempted']} correct"]
    info = result["info"]
    if result["trace"]:
        lines += result["layers"]["table"]
        if "measured_overhead_pct" in info:
            lines.append(f"  trace overhead measured against the untraced "
                         f"run: {info['measured_overhead_pct']:.2f}%")
    else:
        units = _units(False)
        lines += [f"  {name:<16s}{value:>12.4f} {units[name]}"
                  for name, value in result["metrics"].items()]
        lines.append(f"  {'fail_rate':<16s}"
                     f"{result['failed'] / result['attempted']:>12.4f}")
    lines.append("  set-ups (s): "
                 + " ".join(f"{s:.3f}" for s in info["setups_s"]))
    unit = "cells/s" if "reps_s" in info else "requests/s"
    lines.append(f"  {'capacity_rps':<16s}{info['capacity_rps']:>12.4f} "
                 f"{unit} (not gated)")
    if "late_p90_ms" in info:
        top = info["top_percentile"]
        tail = (f", p{top:g} {info['top_ms']:.2f} ms"
                if top is not None and top > 50.0 else "")
        lines.append(f"  open loop at {info['rate']:g}/s: "
                     f"{info['samples']} samples, p50 {info['p50_ms']:.2f} "
                     f"ms{tail}, generator late p90 "
                     f"{info['late_p90_ms']:.2f} ms"
                     + ("" if info["valid"] else "  ** INVALID **"))
    else:
        lines.append(f"  reps (s): "
                     + " ".join(f"{rep:.3f}" for rep in info["reps_s"])
                     + f", median {info['median_rep_ms'] / 1e3:.3f}")
    return lines


def result_line(result: dict) -> str:
    units = _units(result["trace"])
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}})


def _record(result: dict) -> dict:
    """The run as one JSONL record for ``--out``, sweeps and compare."""
    keep = ("workload", "seed", "seconds", "trace", "correct", "attempted",
            "failed", "metrics", "info")
    record = {key: result[key] for key in keep}
    if "layers" in result:
        record["e2e"] = result["e2e"]
        record["layers"] = {key: value for key, value
                            in result["layers"].items() if key != "table"}
    return record


def _append(path: str | None, result: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(_record(result)) + "\n")


# -- commands -----------------------------------------------------------------


def _timeout(signum, frame):
    raise Failed(f"run exceeded {RUN_LIMIT_S}s")


def command_run(args: argparse.Namespace) -> int:
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.quick)
    finally:
        signal.alarm(0)
    print("\n".join(describe(result)))
    _append(args.out, result)
    print(result_line(result), flush=True)
    return 0 if result["correct"] else 1


def measured_overhead_pct(traced: dict, untraced_ms: float) -> float:
    """Tracing cost as measured: traced over untraced latency_ms, less 1."""
    return 100.0 * (traced["e2e"]["latency_ms"] / untraced_ms - 1.0)


def command_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced with the same seed."""
    results = []
    for workload in WORKLOADS:
        untraced = run_one(workload, args.seed, args.seconds, False,
                           args.quick)
        traced = run_one(workload, args.seed, args.seconds, True, args.quick)
        traced["info"]["measured_overhead_pct"] = measured_overhead_pct(
            traced, untraced["metrics"]["latency_ms"])
        for result in (untraced, traced):
            print("\n".join(describe(result)), flush=True)
            _append(args.out, result)
        results += [untraced, traced]
    untraced = {r["workload"]: r for r in results if not r["trace"]}
    traced = {r["workload"]: r for r in results if r["trace"]}
    attempted = sum(r["attempted"] for r in results) + 1
    failed = sum(r["failed"] for r in results)
    if untraced["grid_cold"]["info"]["digests"] != \
            traced["grid_cold"]["info"]["digests"]:
        print("grid_cold: traced and untraced record digests differ")
        failed += 1
    print("\ntracing cost, measured (traced / untraced latency_ms - 1) "
          "and estimated (calibrated per span):")
    for workload in WORKLOADS:
        print(f"  {workload:<12s}"
              f"{traced[workload]['info']['measured_overhead_pct']:>8.2f}%"
              f"{traced[workload]['metrics']['trace_overhead_pct']:>8.2f}%")
    metrics = {f"{r['workload']}.{name}": {"value": value,
                                            "unit": _units(r["trace"])[name]}
               for r in results for name, value in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def command_sweep(args: argparse.Namespace) -> int:
    """``--sets`` x ``--seeds`` untraced runs of every workload, each in a
    fresh process as BENCHMARK.json's command runs them, plus one traced
    run each."""
    with open(BENCHMARK, encoding="utf-8") as stream:
        benchmark = json.load(stream)
    seconds = args.seconds or benchmark["run_seconds"]
    records_path = args.out + ".runs.jsonl"
    sets: list[list[dict]] = []

    def child(workload: str, seed: int, trace: int) -> dict:
        if os.path.exists(records_path):
            os.remove(records_path)
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", records_path],
            cwd=ROOT, check=False, capture_output=True, text=True)
        if not os.path.exists(records_path):
            raise Failed(f"{workload} seed {seed} trace {trace} gave no "
                         f"result:\n{completed.stderr[-3000:]}")
        with open(records_path, encoding="utf-8") as stream:
            record = json.loads(stream.readline())
        record["wall_s"] = time.perf_counter() - started
        print(f"  {workload:<12s} seed {seed:<3d} trace {trace} "
              f"{record['wall_s']:6.1f}s correct={record['correct']} "
              + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()
                         if not trace), flush=True)
        return record

    try:
        for index in range(args.sets):
            print(f"set {index + 1}/{args.sets}", flush=True)
            sets.append([child(workload, seed, 0)
                         for seed in range(args.seeds)
                         for workload in WORKLOADS])
        traced = [child(workload, 0, 1) for workload in WORKLOADS]
        for record in traced:
            # against the median untraced run of the same workload
            untraced = statistics.median(
                r["metrics"]["latency_ms"] for runs in sets for r in runs
                if r["workload"] == record["workload"])
            record["info"]["measured_overhead_pct"] = measured_overhead_pct(
                record, untraced)
    finally:
        if os.path.exists(records_path):
            os.remove(records_path)
    report = {"created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "machine": machine_metadata(), "benchmark": benchmark,
              "summary": summarize(sets, benchmark), "sets": sets,
              "traced": traced}
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=1)
        stream.write("\n")
    print("\n".join(render_summary(report["summary"])))
    return 0 if all(r["correct"] for s in sets for r in s) else 1


def summarize(sets: list[list[dict]], benchmark: dict) -> list[dict]:
    """Per workload x metric: each set's median and spread, and how far
    the last set's median moved from the first's (worse is positive)."""
    rows = []
    for workload in WORKLOADS:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            per_set = [[r["metrics"][name] for r in runs
                        if r["workload"] == workload] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            moved = (medians[-1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                moved = -moved
            rows.append({"workload": workload, "metric": name,
                         "bound": metric["bound"], "medians": medians,
                         "spreads": [verdict.spread(v) for v in per_set],
                         "moved": moved})
    return rows


def render_summary(rows: list[dict]) -> list[str]:
    lines = [f"{'workload':<12s}{'metric':<16s}{'bound':>7s}"
             f"{'spread (IQR/median) per set':>30s}{'moved':>9s}"]
    for row in rows:
        spreads = " ".join(f"{100 * s:6.2f}%" for s in row["spreads"])
        flag = ("" if max(row["spreads"]) < row["bound"] / 3
                and row["moved"] <= row["bound"] else "  <-")
        lines.append(f"{row['workload']:<12s}{row['metric']:<16s}"
                     f"{100 * row['bound']:>6.0f}%{spreads:>30s}"
                     f"{100 * row['moved']:>8.2f}%{flag}")
    return lines


def command_compare(args: argparse.Namespace) -> int:
    with open(BENCHMARK, encoding="utf-8") as stream:
        benchmark = json.load(stream)
    rows = verdict.compare(verdict.load_records(args.parent),
                           verdict.load_records(args.change), benchmark)
    print("\n".join(verdict.render(rows)))
    return 1 if any(r["verdict"] in ("regressed", "too few pairs")
                    for r in rows) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return command_compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["sweep"]:
        parser = argparse.ArgumentParser(prog="run.py sweep")
        parser.add_argument("--seeds", type=int, default=10)
        parser.add_argument("--sets", type=int, default=2)
        parser.add_argument("--seconds", type=int, default=None)
        parser.add_argument("--out", required=True)
        return command_sweep(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append each run's record to this JSONL file")
    parser.add_argument("--quick", action="store_true",
                        help="short grid, one launch: a smoke test, not a "
                             "measurement")
    args = parser.parse_args(argv)
    if args.workload is None:
        return command_all(args)
    return command_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
