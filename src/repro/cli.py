"""Command-line interface for the reproduction package.

Subcommands:

- ``repro-eval info`` — list datasets, compressors, and forecasting models
- ``repro-eval compress --dataset ETTm1 --method PMC --error-bound 0.1``
  — compress one dataset and report CR / TE / segments
- ``repro-eval sweep --dataset ETTm1`` — the full Figure 2/3 sweep
- ``repro-eval evaluate --dataset ETTm1 --model DLinear`` — Algorithm 1 for
  one (model, dataset) pair: baseline NRMSE plus TFE per method and bound
- ``repro-eval grid --datasets ETTm1 Weather --models Arima DLinear
  --workers 4`` — run an arbitrary sub-grid through the task-graph runtime
  and print the run manifest (jobs planned/cached/executed, wall time per
  phase, failures) plus a digest of the resulting records.  ``--timeout``
  bounds each job attempt, ``--retries`` re-runs transient failures, and
  ``--keep-going`` completes every independent cell when one fails (exit
  code 0, with the failure listed in the manifest) instead of aborting
  with a ``JobError`` (exit code 1).  ``--backend {serial,pool,queue}``
  picks the execution backend; the queue backend coordinates independent
  worker processes through a SQLite job queue and the shared cache.
- ``repro-eval worker --queue-path .cache/queue.sqlite --cache-dir
  .cache`` — attach an extra worker process to a live queue-backend run
  (elastic scale-up from any terminal sharing the filesystem).
- ``repro-eval bench`` — time the vectorized compression kernels against
  their scalar references (best-of-N, ETTm1-like synthetic) and write the
  ``BENCH_compression.json`` baseline; ``--check`` turns the report into a
  regression gate that exits 1 when a kernel drops below ``--min-speedup``,
  a kernel/scalar payload mismatch is detected, or the disabled-mode
  observability overhead exceeds its ceiling.
- ``repro-eval loadgen --port 8321 --rate 50 --duration 10 --check`` —
  open-loop load generation (Poisson arrivals, configurable
  compress/forecast/grid/stream mix or a replayed trace) against a live
  ``repro-serve``, reporting p50/p95/p99 latency, throughput, shed and
  error rates, batch occupancy, and cache hit ratio into
  ``BENCH_serve.json``; ``--check`` gates the SLO block the way
  ``bench --check`` gates kernel speedups.  ``--self-host`` boots an
  ephemeral in-process daemon to drive instead.
- ``repro-eval trace RUN_DIR`` — summarize a run directory written by
  ``grid --trace`` (or ``bench --trace``): manifest counts, span tree,
  slowest jobs, failure hotspots, merged metrics.
- ``repro-eval serve ...`` — start the ``repro-serve`` HTTP daemon; every
  following argument is forwarded to it (see ``repro-serve --help``).

Every evaluation subcommand runs through the typed API's
:class:`~repro.api.service.ApiService`, the engine behind ``repro-serve``
too.  ``compress`` and ``trace`` print their output decoded from the
exact JSON payloads ``repro-serve`` returns on ``/v1/compress`` /
``/v1/trace``, and ``--json`` prints those payloads verbatim — one wire
shape across the CLI and the server.

``grid`` and ``bench`` accept ``--trace [DIR]`` to record a merged
``trace.jsonl`` (plus ``manifest.json`` for grid runs) into ``DIR``
(default ``.trace``).  All subcommands accept ``--length`` to control the
synthetic series length.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.compression.registry import (GRID_METHODS, LOSSY_METHODS,
                                        PAPER_ERROR_BOUNDS)
from repro.datasets.registry import DATASET_NAMES
from repro.forecasting.registry import MODEL_NAMES
from repro.registry import model_names, task_names


def build_parser() -> argparse.ArgumentParser:
    from repro.server.app import add_serve_arguments

    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Reproduction of 'Evaluating the Impact of Error-Bounded "
                    "Lossy Compression on Time Series Forecasting' (EDBT 2024)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="list datasets, compressors, and models")

    compress = commands.add_parser("compress", help="compress one dataset")
    compress.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    compress.add_argument("--method", required=True,
                          choices=GRID_METHODS + ("GORILLA",))
    compress.add_argument("--error-bound", type=float, default=0.1)
    compress.add_argument("--length", type=int, default=5_000)
    compress.add_argument("--json", action="store_true",
                          help="print the tagged CompressResponse payload "
                               "(the exact /v1/compress body) instead of "
                               "the human-readable report")

    sweep = commands.add_parser("sweep", help="TE/CR sweep over all bounds")
    sweep.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    sweep.add_argument("--length", type=int, default=5_000)

    evaluate = commands.add_parser(
        "evaluate", help="Algorithm 1 for one model on one dataset")
    evaluate.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    evaluate.add_argument("--model", required=True, choices=MODEL_NAMES)
    evaluate.add_argument("--length", type=int, default=3_000)
    evaluate.add_argument("--error-bounds", type=float, nargs="+",
                          default=[0.05, 0.1, 0.2, 0.4])

    grid = commands.add_parser(
        "grid", help="run a sub-grid through the task-graph runtime")
    grid.add_argument("--datasets", nargs="+", choices=DATASET_NAMES,
                      default=["ETTm1", "Weather"])
    grid.add_argument("--task", choices=task_names(), default="forecasting",
                      help="downstream task scoring each cell")
    grid.add_argument("--models", nargs="+", choices=model_names(),
                      default=None,
                      help="models of the chosen task (default: Arima + "
                           "DLinear for forecasting, every registered "
                           "detector otherwise)")
    grid.add_argument("--methods", nargs="+", choices=GRID_METHODS,
                      default=list(LOSSY_METHODS))
    grid.add_argument("--error-bounds", type=float, nargs="+",
                      default=[0.1, 0.4])
    grid.add_argument("--length", type=int, default=2_000)
    grid.add_argument("--workers", type=int, default=1,
                      help="worker count of the execution backend "
                           "(with --backend auto: 1 = serial, >1 = pool)")
    grid.add_argument("--backend", default="auto",
                      choices=("auto", "serial", "pool", "queue"),
                      help="execution backend; queue = durable SQLite job "
                           "queue with independent worker processes "
                           "(requires --cache-dir; scale up live runs with "
                           "'repro-eval worker')")
    grid.add_argument("--queue-path", default=None,
                      help="queue-backend database path (default: "
                           "queue.sqlite inside the cache dir)")
    grid.add_argument("--lease", type=float, default=10.0,
                      help="queue-backend lease seconds before a silent "
                           "worker forfeits its job")
    grid.add_argument("--seeds", type=int, default=1,
                      help="random seeds per model")
    grid.add_argument("--cache-dir", default=".cache",
                      help="shared job cache ('' disables caching)")
    grid.add_argument("--retrain", action="store_true",
                      help="also train on decompressed data (Figure 7)")
    grid.add_argument("--timeout", type=float, default=None,
                      help="per-job attempt timeout in seconds")
    grid.add_argument("--retries", type=int, default=0,
                      help="extra attempts per failing job")
    grid.add_argument("--keep-going", action="store_true",
                      help="isolate failing cells (recorded in the "
                           "manifest) instead of aborting the run")
    grid.add_argument("--trace", nargs="?", const=".trace", default=None,
                      metavar="DIR",
                      help="record spans/metrics from every worker into "
                           "DIR/trace.jsonl plus the run manifest into "
                           "DIR/manifest.json (default DIR: .trace)")

    bench = commands.add_parser(
        "bench", help="benchmark the vectorized kernels vs their scalar "
                      "references (compression or forecasting suite)")
    bench.add_argument("--suite", choices=("compression", "forecasting"),
                       default="compression",
                       help="compression: compressor kernels -> "
                            "BENCH_compression.json; forecasting: "
                            "model fit/predict kernels + zero-copy cache "
                            "-> BENCH_forecasting.json")
    bench.add_argument("--length", type=int, default=None,
                       help="synthetic series length (default: 20000 for "
                            "compression, 1200 for forecasting)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="best-of-N repetitions per timing "
                            "(default: 5 compression, 3 forecasting)")
    bench.add_argument("--error-bounds", type=float, nargs="+",
                       default=[0.01, 0.05, 0.1])
    bench.add_argument("--grid-length", type=int, default=2_000,
                       help="series length for the end-to-end grid cell "
                            "(compression suite)")
    bench.add_argument("--epochs", type=int, default=3,
                       help="training epochs per fit timing "
                            "(forecasting suite)")
    bench.add_argument("--arima-length", type=int, default=6_000,
                       help="series length for the Arima fit timing "
                            "(forecasting suite)")
    bench.add_argument("--models", nargs="+", default=None,
                       help="forecasting-suite models to bench "
                            "(default: all)")
    bench.add_argument("--output", default=None,
                       help="path for the JSON report ('' skips writing; "
                            "default: the suite's committed baseline name)")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 if any kernel misses its speedup floor "
                            "or a kernel/scalar mismatch is detected")
    bench.add_argument("--min-speedup", type=float, default=1.0,
                       help="compression: compress speedup floor; "
                            "forecasting: multiplier on the per-model "
                            "floors enforced by --check")
    bench.add_argument("--max-obs-overhead", type=float, default=None,
                       help="ceiling (percent) on disabled-mode "
                            "observability overhead enforced by --check")
    bench.add_argument("--trace", nargs="?", const=".trace", default=None,
                       metavar="DIR",
                       help="record bench spans into DIR/trace.jsonl "
                            "(default DIR: .trace)")

    worker = commands.add_parser(
        "worker", help="attach a queue worker process to a live grid run "
                       "(elastic scale-up for --backend queue)")
    worker.add_argument("--queue-path", required=True,
                        help="the run's queue database (queue.sqlite)")
    worker.add_argument("--cache-dir", required=True,
                        help="the run's shared cache directory (results "
                             "are published there)")
    worker.add_argument("--lease", type=float, default=10.0,
                        help="lease seconds (match the run's --lease)")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        help="exit after this many idle seconds "
                             "(default: run until killed)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after executing this many jobs")
    worker.add_argument("--id", default=None, dest="worker_id",
                        help="worker id stamped on leases "
                             "(default: host-pid)")

    loadgen = commands.add_parser(
        "loadgen", help="open-loop load generation + SLO gate against a "
                        "live repro-serve (writes BENCH_serve.json)")
    loadgen.add_argument("--host", default="127.0.0.1",
                         help="target daemon host")
    loadgen.add_argument("--port", type=int, default=8321,
                         help="target daemon port")
    loadgen.add_argument("--self-host", action="store_true",
                         help="boot an ephemeral in-process repro-serve "
                              "on a free port instead of targeting "
                              "--host/--port")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="seconds of scheduled arrivals")
    loadgen.add_argument("--rate", type=float, default=50.0,
                         help="Poisson arrival rate (requests/second)")
    loadgen.add_argument("--clients", type=int, default=16,
                         help="client threads firing the schedule")
    loadgen.add_argument("--mix", nargs="+", metavar="KIND=WEIGHT",
                         default=["compress=0.90", "forecast=0.08",
                                  "grid=0.02"],
                         help="request mix over "
                              "compress/forecast/grid/stream")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="schedule RNG seed (same seed = same load)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request client timeout in seconds")
    loadgen.add_argument("--replay", default=None, metavar="FILE",
                         help="JSONL trace to replay instead of the "
                              "synthesized mix (endpoint+payload lines)")
    loadgen.add_argument("--length", type=int, default=None,
                         help="series length stamped on synthesized "
                              "requests (None = server default)")
    loadgen.add_argument("--no-warmup", action="store_true",
                         help="skip the cache-warming pre-pass")
    loadgen.add_argument("--output", default="BENCH_serve.json",
                         help="path for the JSON report ('' skips "
                              "writing)")
    loadgen.add_argument("--check", action="store_true",
                         help="exit 1 when the report misses its SLOs "
                              "(p99, throughput, error/shed rates)")
    loadgen.add_argument("--max-p99-ms", type=float, default=5_000.0,
                         help="SLO: p99 latency ceiling")
    loadgen.add_argument("--min-throughput", type=float, default=1.0,
                         help="SLO: completed-request throughput floor")
    loadgen.add_argument("--max-error-rate", type=float, default=0.0,
                         help="SLO: non-shed failure fraction ceiling")
    loadgen.add_argument("--max-shed-rate", type=float, default=1.0,
                         help="SLO: shed (429) fraction ceiling")

    trace = commands.add_parser(
        "trace", help="summarize a run directory written by grid --trace")
    trace.add_argument("run_dir", help="directory holding trace.jsonl "
                                       "and/or manifest.json")
    trace.add_argument("--top", type=int, default=10,
                       help="rows per section (slowest jobs, span tree)")
    trace.add_argument("--json", action="store_true",
                       help="print the tagged TraceResponse payload (the "
                            "exact /v1/trace body) instead of plain lines")

    serve = commands.add_parser(
        "serve", help="start the repro-serve HTTP daemon (typed /v1 API)")
    add_serve_arguments(serve)
    return parser


def _command_info() -> int:
    print("datasets:    " + ", ".join(DATASET_NAMES))
    print("compressors: " + ", ".join(GRID_METHODS) + " (+ GORILLA lossless)")
    print("models:      " + ", ".join(MODEL_NAMES))
    for task in task_names():
        print(f"task {task:<12s}: " + ", ".join(model_names(task=task)))
    print("error bounds:" + " " + ", ".join(str(b) for b in PAPER_ERROR_BOUNDS))
    return 0


def _command_compress(args: argparse.Namespace) -> int:
    """One CompressRequest through the typed API, printed off the wire.

    The response is round-tripped through the JSON codec before printing,
    so this command and ``POST /v1/compress`` expose one and the same
    payload shape — ``--json`` prints that payload verbatim.
    """
    from repro.api import (ApiError, ApiService, CompressRequest, dumps,
                           loads)
    from repro.core.config import EvaluationConfig

    service = ApiService(EvaluationConfig(dataset_length=args.length,
                                          cache_dir=None))
    request = CompressRequest(args.dataset, args.method, args.error_bound,
                              part="full")
    result, = service.compress_batch([request])
    wire = dumps(result)
    if args.json:
        print(wire)
        return 0
    response = loads(wire)
    from repro.api import ErrorEnvelope

    if isinstance(response, ErrorEnvelope):
        raise ApiError(response, status=500)
    print(f"{response.method} on {response.dataset} "
          f"(eps={response.error_bound}):")
    print(f"  compressed size : {response.compressed_size} bytes")
    print(f"  compression ratio: {response.compression_ratio:.2f}x")
    print(f"  TE (NRMSE)       : {response.te['NRMSE']:.5f}")
    print(f"  segments         : {response.num_segments}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    """The Figure 2/3 sweep: every configured codec and bound, one graph."""
    from repro.api import (ApiError, ApiService, CompressRequest,
                           CompressResponse, ErrorEnvelope)
    from repro.core.config import EvaluationConfig

    service = ApiService(EvaluationConfig(dataset_length=args.length,
                                          cache_dir=None))
    config = service.config
    print(f"{'method':7s}{'eps':>6s}{'CR':>9s}{'TE':>9s}{'segments':>10s}")
    for response in service.compress_batch([
            CompressRequest(args.dataset, method, error_bound)
            for method in config.compressors
            for error_bound in config.error_bounds]):
        if isinstance(response, CompressResponse):
            print(f"{response.method:7s}{response.error_bound:>6.2f}"
                  f"{response.compression_ratio:>9.1f}"
                  f"{response.te['NRMSE']:>9.4f}"
                  f"{response.num_segments:>10d}")
    gorilla, = service.compress_batch(
        [CompressRequest(args.dataset, "GORILLA", 0.0)])
    if isinstance(gorilla, ErrorEnvelope):
        raise ApiError(gorilla, status=500)
    print(f"GORILLA lossless CR: {gorilla.compression_ratio:.2f}x")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    from repro.api import ApiService, GridRequest
    from repro.core import EvaluationConfig, tfe_table
    from repro.core.results import RAW, mean_over_seeds

    config = EvaluationConfig(dataset_length=args.length, cache_dir=None,
                              deep_seeds=1, simple_seeds=1,
                              error_bounds=tuple(args.error_bounds))
    service = ApiService(config)
    print(f"training {args.model} on {args.dataset} ...")
    records, _ = service.grid(GridRequest(datasets=(args.dataset,),
                                          models=(args.model,)))
    baseline = mean_over_seeds(records)[
        (args.dataset, args.model, RAW, 0.0, False)]
    print(f"baseline NRMSE: {baseline['NRMSE']:.4f}  (R {baseline['R']:.3f})")
    table = tfe_table(records)
    print(f"{'method':7s}" + "".join(f"{b:>9.2f}" for b in args.error_bounds))
    for method in config.compressors:
        cells = [table[(args.dataset, args.model, method, bound, False)]
                 for bound in args.error_bounds]
        print(f"{method:7s}" + "".join(f"{c:>+9.2%}" for c in cells))
    return 0


def _records_digest(records) -> str:
    """Stable fingerprint of a record list, for comparing runs.

    Serial and parallel runs of the same grid must produce byte-identical
    records; comparing this digest across ``--workers`` settings (or across
    machines) verifies that.
    """
    import hashlib

    payload = repr([(r.dataset, r.model, r.method, r.error_bound, r.seed,
                     r.retrained, r.task, sorted(r.metrics.items()))
                    for r in records])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _command_grid(args: argparse.Namespace) -> int:
    import math

    from repro.api import ApiService, GridRequest
    from repro.core import EvaluationConfig, tfe_table
    from repro.core.results import RAW, mean_over_seeds
    from repro.runtime import JobError

    if args.models:
        models = tuple(args.models)
    elif args.task == "forecasting":
        models = ("Arima", "DLinear")
    else:
        models = model_names(task=args.task)
    config = EvaluationConfig(
        datasets=tuple(args.datasets),
        models=models,
        compressors=tuple(args.methods),
        error_bounds=tuple(args.error_bounds),
        dataset_length=args.length,
        deep_seeds=args.seeds,
        simple_seeds=args.seeds,
        cache_dir=args.cache_dir or None,
        max_workers=args.workers,
        backend=args.backend,
        queue_path=args.queue_path,
        queue_lease_s=args.lease,
        job_timeout=args.timeout,
        job_retries=args.retries,
        keep_going=args.keep_going,
        trace_dir=args.trace,
    )
    service = ApiService(config)
    cells = (len(config.datasets) * len(config.models)
             * len(config.compressors) * len(config.error_bounds))
    print(f"grid: {len(config.datasets)} datasets x {len(config.models)} "
          f"models x {len(config.compressors)} methods x "
          f"{len(config.error_bounds)} bounds = {cells} cells "
          f"(+ baselines), task={args.task}, workers={args.workers}, "
          f"backend={args.backend}")
    try:
        records, manifest = service.grid(GridRequest(
            models=models, task=args.task, retrained=args.retrain))
    except JobError as error:
        if service.last_manifest is not None:
            print("\nrun manifest:")
            for line in service.last_manifest.lines():
                print(f"  {line}")
        _finish_trace(args.trace)
        print(f"\nerror: {error}", file=sys.stderr)
        print("hint: re-run with --keep-going to isolate the failing cell",
              file=sys.stderr)
        return 1

    print("\nrun manifest:")
    for line in manifest.lines():
        print(f"  {line}")
    print(f"\nrecords       : {len(records)}")
    print(f"records digest: {_records_digest(records)}")

    means = mean_over_seeds(records)
    if args.task != "forecasting":
        # anomaly-style tasks score detection quality, not forecast error:
        # report per-pair baseline F1 and the worst F1 over the lossy cells
        print(f"\n{'dataset':<10s}{'model':<12s}{'baseline F1':>12s}"
              f"{'worst F1':>10s}")
        for dataset in config.datasets:
            for model in config.models:
                metrics = means.get((dataset, model, RAW, 0.0, False))
                scores = [m["F1"] for (ds, mdl, method, _, _), m
                          in means.items()
                          if ds == dataset and mdl == model
                          and method != RAW and not math.isnan(m["F1"])]
                baseline = (f"{metrics['F1']:>12.3f}" if metrics
                            else f"{'failed':>12s}")
                worst = f"{min(scores):>10.3f}" if scores else f"{'n/a':>10s}"
                print(f"{dataset:<10s}{model:<12s}{baseline}{worst}")
        _finish_trace(args.trace)
        return 0

    # a failed baseline cell (keep-going) leaves a (dataset, model) pair
    # without a RAW denominator; compute TFE only where one exists
    have_baseline = {(dataset, model)
                     for (dataset, model, method, _, retrained) in means
                     if method == RAW and not retrained}
    table = tfe_table([r for r in records
                       if (r.dataset, r.model) in have_baseline])
    print(f"\n{'dataset':<10s}{'model':<12s}{'baseline NRMSE':>15s}"
          f"{'worst TFE':>11s}")
    for dataset in config.datasets:
        for model in config.models:
            metrics = means.get((dataset, model, RAW, 0.0, False))
            tfes = [cell for method in config.compressors
                    for bound in config.error_bounds
                    if (cell := table.get((dataset, model, method, bound,
                                           args.retrain))) is not None
                    and not math.isnan(cell)]
            baseline = (f"{metrics['NRMSE']:>15.4f}" if metrics
                        else f"{'failed':>15s}")
            worst = f"{max(tfes):>+11.2%}" if tfes else f"{'n/a':>11s}"
            print(f"{dataset:<10s}{model:<12s}{baseline}{worst}")
    _finish_trace(args.trace)
    return 0


def _finish_trace(trace_dir: str | None) -> None:
    """Flush and disable observability, pointing at the written trace."""
    if not trace_dir:
        return
    import repro.obs as obs

    obs.shutdown()
    print(f"\ntrace written to {trace_dir} "
          f"(inspect with: repro-eval trace {trace_dir})")


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench import (DEFAULT_FORECASTING_OUTPUT,
                             DEFAULT_MAX_OBS_OVERHEAD_PERCENT, DEFAULT_OUTPUT,
                             BenchConfig, ForecastingBenchConfig,
                             check_forecasting_report, check_report,
                             run_bench, run_forecasting_bench, write_report)

    if args.trace:
        import os

        import repro.obs as obs

        obs.configure(trace_path=os.path.join(args.trace, "trace.jsonl"))
    if args.suite == "forecasting":
        config = ForecastingBenchConfig(
            length=args.length or 1_200,
            arima_length=args.arima_length,
            epochs=args.epochs,
            repeats=args.repeats or 3,
            models=(tuple(args.models) if args.models
                    else ForecastingBenchConfig.models),
            min_speedup=args.min_speedup)
        report = run_forecasting_bench(config, progress=print)
        failures = check_forecasting_report(report, args.min_speedup)
        output = (args.output if args.output is not None
                  else DEFAULT_FORECASTING_OUTPUT)
        passed = (f"check passed: every model cleared its floor x "
                  f"{args.min_speedup:.2f}, forecasts identical, cached "
                  f"arrays served zero-copy")
    else:
        config = BenchConfig(length=args.length or 20_000,
                             repeats=args.repeats or 5,
                             error_bounds=tuple(args.error_bounds),
                             grid_length=args.grid_length,
                             min_speedup=args.min_speedup,
                             max_obs_overhead_percent=(
                                 args.max_obs_overhead
                                 if args.max_obs_overhead is not None
                                 else DEFAULT_MAX_OBS_OVERHEAD_PERCENT))
        report = run_bench(config, progress=print)
        failures = check_report(report, args.min_speedup)
        output = args.output if args.output is not None else DEFAULT_OUTPUT
        passed = (f"check passed: all kernels >= {args.min_speedup:.2f}x "
                  f"over scalar, payloads identical, obs overhead within "
                  f"{report['obs_overhead']['max_percent']:.1f}%")
    _finish_trace(args.trace)
    if output:
        write_report(report, output)
        print(f"report written to {output}")
    if failures:
        for failure in failures:
            print(f"regression: {failure}",
                  file=sys.stderr if args.check else sys.stdout)
        if args.check:
            return 1
    elif args.check:
        print(passed)
    return 0


def _parse_mix(entries: list[str]) -> tuple[tuple[str, float], ...]:
    """``compress=0.9 forecast=0.1`` → the loadgen mix tuple."""
    from repro.server.loadgen import ENDPOINTS

    mix = []
    for entry in entries:
        kind, _, weight = entry.partition("=")
        if kind not in ENDPOINTS or not weight:
            raise SystemExit(
                f"error: bad --mix entry {entry!r} (expected KIND=WEIGHT "
                f"with KIND in {', '.join(ENDPOINTS)})")
        mix.append((kind, float(weight)))
    return tuple(mix)


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.bench import write_report
    from repro.server.loadgen import (LoadgenConfig, SloConfig,
                                      check_serve_report, run_loadgen,
                                      self_hosted)

    config = LoadgenConfig(
        duration_s=args.duration, rate_hz=args.rate, clients=args.clients,
        mix=_parse_mix(args.mix), seed=args.seed, timeout_s=args.timeout,
        replay=args.replay, warmup=not args.no_warmup,
        slo=SloConfig(max_p99_ms=args.max_p99_ms,
                      min_throughput_rps=args.min_throughput,
                      max_error_rate=args.max_error_rate,
                      max_shed_rate=args.max_shed_rate))
    if args.self_host:
        with self_hosted(length=args.length or 512) as server:
            report = run_loadgen(config, host=server.host, port=server.port,
                                 length=args.length, progress=print)
    else:
        report = run_loadgen(config, host=args.host, port=args.port,
                             length=args.length, progress=print)

    totals, latency = report["totals"], report["latency_ms"]
    print(f"sent {totals['sent']}  ok {totals['ok']}  "
          f"shed {totals['shed']}  timeouts {totals['timeouts']}  "
          f"errors {totals['errors']}")
    print(f"latency p50 {latency['p50']:.1f}ms  p95 {latency['p95']:.1f}ms  "
          f"p99 {latency['p99']:.1f}ms  max {latency['max']:.1f}ms")
    print(f"throughput {totals['throughput_rps']:.1f} rps "
          f"(offered {totals['offered_rps']:.1f} rps)")
    server_stats = report["server"]
    if server_stats.get("batch_occupancy_mean") is not None:
        print(f"batches {server_stats['batches']:.0f}  occupancy mean "
              f"{server_stats['batch_occupancy_mean']:.1f} / max "
              f"{server_stats['batch_occupancy_max']:.0f}  cache hit ratio "
              f"{server_stats['cache_hit_ratio']}")
    if args.output:
        write_report(report, args.output)
        print(f"report written to {args.output}")
    failures = check_serve_report(report)
    if failures:
        for failure in failures:
            print(f"regression: {failure}",
                  file=sys.stderr if args.check else sys.stdout)
        if args.check:
            return 1
    elif args.check:
        print("check passed: all SLOs met "
              f"(p99 <= {args.max_p99_ms:g}ms, throughput >= "
              f"{args.min_throughput:g} rps, error rate <= "
              f"{args.max_error_rate:g}, shed rate <= "
              f"{args.max_shed_rate:g})")
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """Attach one queue worker to a live run (elastic scale-up).

    Workers rendezvous purely through the queue database and the shared
    cache directory, so any terminal (or host sharing the filesystem)
    can add capacity to a running ``grid --backend queue`` mid-flight.
    """
    import os

    from repro.runtime.backends.queue import worker_loop

    worker_id = args.worker_id or f"cli-{os.getpid()}"
    print(f"worker {worker_id} pulling from {args.queue_path} "
          f"(cache: {args.cache_dir}; Ctrl-C to stop)")
    try:
        executed = worker_loop(args.queue_path, args.cache_dir,
                               worker_id=worker_id, lease_s=args.lease,
                               idle_timeout_s=args.idle_timeout,
                               max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        print("worker stopped")
        return 0
    print(f"worker {worker_id} exiting after {executed} job(s)")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """Summarize a run directory via the typed API (TraceRequest).

    Same codec round trip as ``compress``: the printed lines are decoded
    from the exact payload ``POST /v1/trace`` would return.
    """
    from repro.api import ApiService, TraceRequest, dumps, loads

    request = TraceRequest(run_dir=args.run_dir, top=args.top)
    wire = dumps(ApiService.trace(request))
    if args.json:
        print(wire)
        return 0
    for line in loads(wire).lines:
        print(line)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.server.app import serve_from_args

    return serve_from_args(args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _command_info()
    if args.command == "compress":
        return _command_compress(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "evaluate":
        return _command_evaluate(args)
    if args.command == "grid":
        return _command_grid(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "loadgen":
        return _command_loadgen(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "serve":
        return _command_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
