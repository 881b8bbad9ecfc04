"""Micro-benchmark engine for the compression and forecasting kernels.

The vectorized kernels in ``repro.compression.kernels`` (and the
table-driven Huffman paths in ``repro.encoding.huffman``) are only worth
their complexity while they stay measurably faster than the scalar
reference implementations in ``repro.reference`` — and the same holds for
the fused forecasting kernels in ``repro.forecasting.nn.kernels``, the
shared-work ARIMA fit, and the zero-copy columnar cache format.  This
module measures those margins and freezes them into machine-readable
baselines:

- :func:`run_bench` times each registered codec's ``compress`` against
  its ``repro.reference`` twin (and the codec's ``decompress``) on an
  ETTm1-like synthetic series across a sweep of error bounds, best-of-N
  wall-clock per measurement, and checks on the fly that both produced
  byte-identical payloads.
- The report also times one small end-to-end grid cell (a compression
  sweep through :class:`repro.api.ApiService`) so kernel-level speedups
  can be related to whole-pipeline wall time.
- :func:`check_report` turns a report into a list of regression strings —
  empty when every kernel beats its scalar reference by the configured
  margin — which the ``repro-eval bench --check`` CLI (and the CI
  ``bench-smoke`` job) use as an exit-code gate.
- :func:`run_forecasting_bench` does the same for the forecasting hot
  path (``--suite forecasting`` → ``BENCH_forecasting.json``): per-model
  fit/predict timings of each model against its ``repro.reference``
  twin, byte-identity of the produced forecasts, and DiskCache put /
  cold zero-copy get / memory-hit timings, gated by
  :func:`check_forecasting_report` against the honest per-model floors
  in :data:`FORECASTING_SPEEDUP_FLOORS` (DESIGN.md §15).

Timings use the observability span clock (``repro.obs.trace.WALL``, i.e.
``time.perf_counter``) and keep the *minimum* over ``repeats`` runs:
minima are far more stable than means on shared machines, where scheduler
noise only ever adds time.

The report also carries an ``obs_overhead`` section: it counts how many
instrumentation events one kernel compress fires, times the disabled-mode
fast path of those call sites, and gates the product at
``max_obs_overhead_percent`` of the fastest measured kernel compress —
the bench-enforced form of the "disabled observability is a no-op
attribute lookup" guarantee (DESIGN.md §11).
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import WALL

DEFAULT_ERROR_BOUNDS = (0.01, 0.05, 0.1)
DEFAULT_OUTPUT = "BENCH_compression.json"
DEFAULT_FORECASTING_OUTPUT = "BENCH_forecasting.json"
DEFAULT_MAX_OBS_OVERHEAD_PERCENT = 2.0
SCHEMA_VERSION = 1

#: per-model speedup floors for ``--suite forecasting --check``.  The
#: achievable factor is set by where each model's step time lives (DESIGN.md
#: §15): GRU spends it in per-cell Python the kernels fuse away, DLinear and
#: NBeats split between fusable graph overhead and memory-bound Adam traffic,
#: and the attention models are BLAS-bound already, so their floor only
#: guards against regression.  Floors sit below the typical measured speedup
#: (see BENCH_forecasting.json) to absorb shared-machine noise;
#: ``--min-speedup`` scales them uniformly.
FORECASTING_SPEEDUP_FLOORS = {
    "DLinear": 1.25,
    "GRU": 2.0,
    "NBeats": 1.15,
    "Transformer": 0.9,
    "Informer": 0.9,
    "Arima": 1.5,
}


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for one benchmark run.

    ``length``/``repeats`` trade precision for wall time: the defaults suit
    a committed baseline, while CI smoke runs shrink both (see the
    ``bench-smoke`` job) and only gate on ``min_speedup``.
    """

    length: int = 20_000
    repeats: int = 5
    error_bounds: tuple[float, ...] = DEFAULT_ERROR_BOUNDS
    grid_length: int = 2_000
    min_speedup: float = 1.0
    methods: tuple[str, ...] = ("PMC", "SWING", "SZ", "CAMEO", "LFZIP")
    max_obs_overhead_percent: float = DEFAULT_MAX_OBS_OVERHEAD_PERCENT

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "repeats": self.repeats,
            "error_bounds": list(self.error_bounds),
            "grid_length": self.grid_length,
            "min_speedup": self.min_speedup,
            "methods": list(self.methods),
            "max_obs_overhead_percent": self.max_obs_overhead_percent,
        }


def machine_metadata() -> dict:
    """Context needed to interpret (not replay-compare) absolute timings."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def best_of(function: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``function`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = WALL()
        function()
        best = min(best, WALL() - start)
    return best


def percentiles(samples: list[float],
                points: tuple[float, ...] = (50.0, 95.0, 99.0)
                ) -> dict[str, float]:
    """Exact nearest-rank percentiles of raw samples, keyed ``"p50"`` etc.

    Shared by the serving benchmark (``repro.server.loadgen``), which
    gates latency SLOs on the tails: nearest-rank never interpolates, so
    a reported p99 is always a latency some request actually saw.
    """
    if not samples:
        return {f"p{point:g}": float("nan") for point in points}
    ordered = sorted(samples)
    result = {}
    for point in points:
        rank = max(1, math.ceil(point / 100.0 * len(ordered)))
        result[f"p{point:g}"] = ordered[min(rank, len(ordered)) - 1]
    return result


def _compressor_pair(method: str):
    from repro import reference
    from repro.registry import make_compressor

    return make_compressor(method), reference.make_compressor(method)


def bench_method(method: str, series, error_bound: float,
                 repeats: int) -> dict:
    """Time kernel vs scalar compress (and decompress) for one cell.

    Raises ``RuntimeError`` if the two paths disagree on the payload —
    a speedup over a wrong answer is not a speedup.
    """
    kernel, scalar = _compressor_pair(method)
    kernel_result = kernel.compress(series, error_bound)
    scalar_result = scalar.compress(series, error_bound)
    if kernel_result.payload != scalar_result.payload:
        raise RuntimeError(
            f"{method} kernel/scalar payload mismatch at eps={error_bound}")
    compressed = kernel_result.compressed
    kernel_s = best_of(lambda: kernel.compress(series, error_bound), repeats)
    scalar_s = best_of(lambda: scalar.compress(series, error_bound), repeats)
    decompress_s = best_of(lambda: kernel.decompress(compressed), repeats)
    return {
        "error_bound": error_bound,
        "kernel_compress_ms": round(kernel_s * 1e3, 3),
        "scalar_compress_ms": round(scalar_s * 1e3, 3),
        "compress_speedup": round(scalar_s / kernel_s, 2),
        "decompress_ms": round(decompress_s * 1e3, 3),
        "payload_bytes": len(kernel_result.payload),
        "compressed_bytes": kernel_result.compressed_size,
        "num_segments": kernel_result.num_segments,
        "payloads_identical": True,
    }


def bench_grid_cell(config: BenchConfig) -> dict:
    """Wall time of one small end-to-end compression sweep (one grid cell)."""
    from repro.api import ApiService, CompressRequest, CompressResponse
    from repro.core import EvaluationConfig

    service = ApiService(EvaluationConfig(
        dataset_length=config.grid_length, cache_dir=None))
    requests = [CompressRequest("ETTm1", method, error_bound)
                for method in service.config.compressors
                for error_bound in service.config.error_bounds]
    start = WALL()
    records = [response for response in service.compress_batch(requests)
               if isinstance(response, CompressResponse)]
    elapsed = WALL() - start
    return {
        "dataset": "ETTm1",
        "length": config.grid_length,
        "records": len(records),
        "wall_ms": round(elapsed * 1e3, 3),
    }


def bench_obs_overhead(config: BenchConfig, series,
                       methods: dict[str, list[dict]]) -> dict:
    """Estimate the disabled-mode observability tax on a kernel compress.

    Three measurements combine into one conservative percentage:

    1. *events per compress* — run one compress per method with a metered
       registry and an in-memory span sink; the registry's total API-call
       count plus emitted span records bounds how many instrumentation
       call sites the operation crosses (an over-count for disabled mode,
       where ``record_result`` collapses five increments into one
       ``enabled()`` check).
    2. *disabled cost per event* — time the module-level ``inc``/``span``
       fast paths over a tight loop with observability off, keeping the
       slower of the two.
    3. the fastest measured kernel compress from the main benchmark —
       worst case for a *relative* overhead.

    ``overhead_percent = events * cost_per_event / fastest_compress``.
    """
    previous_registry = obs_metrics.active()
    previous_tracer = obs_trace.active()
    events = 0
    try:
        for method in config.methods:
            kernel, _ = _compressor_pair(method)
            registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
            sink = obs_trace.ListSink()
            obs_trace.enable(sink, run_id="bench-overhead")
            kernel.compress(series, config.error_bounds[0])
            events = max(events, registry.events + len(sink.records))
    finally:
        obs_trace.install(previous_tracer)
        if previous_registry is None:
            obs_metrics.disable()
        else:
            obs_metrics.enable(previous_registry)
    # disabled fast path must really be disabled while timed
    obs_metrics.disable()
    obs_trace.disable()
    try:
        loops = 100_000
        start = WALL()
        for _ in range(loops):
            obs_metrics.inc("bench.noop")
        inc_ns = (WALL() - start) / loops * 1e9
        start = WALL()
        for _ in range(loops):
            obs_trace.span("bench.noop")
        span_ns = (WALL() - start) / loops * 1e9
    finally:
        obs_trace.install(previous_tracer)
        if previous_registry is not None:
            obs_metrics.enable(previous_registry)
    per_event_ns = max(inc_ns, span_ns)
    fastest_ms = min(cell["kernel_compress_ms"]
                     for cells in methods.values() for cell in cells)
    overhead_percent = (events * per_event_ns) / (fastest_ms * 1e6) * 100.0
    return {
        "events_per_compress": events,
        "disabled_inc_ns": round(inc_ns, 1),
        "disabled_span_ns": round(span_ns, 1),
        "fastest_kernel_compress_ms": fastest_ms,
        "overhead_percent": round(overhead_percent, 4),
        "max_percent": config.max_obs_overhead_percent,
    }


def run_bench(config: BenchConfig | None = None,
              progress: Callable[[str], None] | None = None) -> dict:
    """Run the full benchmark and return the report dictionary."""
    from repro.datasets import synthetic

    config = config or BenchConfig()
    series = synthetic.ettm1(length=config.length).target_series
    say = progress or (lambda message: None)
    methods: dict[str, list[dict]] = {}
    for method in config.methods:
        cells: list[dict] = []
        for error_bound in config.error_bounds:
            with obs_trace.span("bench.method", method=method,
                                error_bound=error_bound):
                cell = bench_method(method, series, error_bound,
                                    config.repeats)
            say(f"{method:6s} eps={error_bound:<5g} "
                f"kernel {cell['kernel_compress_ms']:8.2f}ms  "
                f"scalar {cell['scalar_compress_ms']:8.2f}ms  "
                f"speedup {cell['compress_speedup']:5.2f}x")
            cells.append(cell)
        methods[method] = cells
    say("grid cell ...")
    with obs_trace.span("bench.grid_cell", length=config.grid_length):
        grid_cell = bench_grid_cell(config)
    say(f"grid cell: {grid_cell['records']} records in "
        f"{grid_cell['wall_ms']:.0f}ms")
    say("obs overhead ...")
    obs_overhead = bench_obs_overhead(config, series, methods)
    say(f"obs overhead: {obs_overhead['events_per_compress']} events/"
        f"compress, {obs_overhead['overhead_percent']:.4f}% of fastest "
        f"kernel compress (gate {obs_overhead['max_percent']:.1f}%)")
    return {
        "schema": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_metadata(),
        "config": config.to_dict(),
        "methods": methods,
        "grid_cell": grid_cell,
        "obs_overhead": obs_overhead,
    }


# -- forecasting suite --------------------------------------------------------


@dataclass(frozen=True)
class ForecastingBenchConfig:
    """Knobs for the forecasting-kernel benchmark.

    ``length``/``epochs``/``repeats`` trade precision for wall time exactly
    like the compression suite; the CI ``bench-forecasting-smoke`` job
    shrinks them and gates only on the (scaled) per-model floors.
    """

    length: int = 1_200
    arima_length: int = 6_000
    epochs: int = 3
    repeats: int = 3
    models: tuple[str, ...] = ("DLinear", "GRU", "NBeats", "Transformer",
                               "Informer", "Arima")
    min_speedup: float = 1.0  # multiplier applied to the per-model floors
    cache_length: int = 200_000  # samples in the cache-timing payload

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "arima_length": self.arima_length,
            "epochs": self.epochs,
            "repeats": self.repeats,
            "models": list(self.models),
            "min_speedup": self.min_speedup,
            "cache_length": self.cache_length,
        }


def _forecaster_pair(model: str, config: ForecastingBenchConfig):
    """Production and ``repro.reference`` instances of ``model``."""
    from repro import reference
    from repro.forecasting.registry import make

    if model == "Arima":
        kwargs = {"seasonal_period": 96}
    else:
        # The cheap models get proportionally more epochs (mirroring their
        # larger production budgets, e.g. DLinear defaults to 40 epochs vs
        # 15) so one-time setup — scaling, windowing, network init — does
        # not drown the per-step time the kernels actually change.
        kwargs = {"epochs": config.epochs
                  * (4 if model in ("DLinear", "NBeats") else 1)}
    return make(model, **kwargs), reference.make_forecaster(model, **kwargs)


def _forecast_fixture(length: int) -> tuple:
    """Synthetic train series plus held-out windows and their positions."""
    from repro.datasets import synthetic

    values = synthetic.ettm1(length=length).target_series.values
    split = int(length * 0.8)
    train, rest = values[:split], values[split:]
    window = 96
    starts = range(0, len(rest) - (window + 24), 7)
    windows = np.stack([rest[i:i + window] for i in starts])
    positions = np.array([split + i for i in starts], dtype=np.float64)
    return train, rest, windows, positions


def bench_forecaster(model: str, config: ForecastingBenchConfig) -> dict:
    """Time kernel vs scalar fit/predict for one model.

    Like :func:`bench_method`, equivalence is checked on the fly: the two
    paths must produce byte-identical forecasts (and, for the deep models,
    identical validation histories), or the cell is marked non-identical
    and ``--check`` fails — a speedup over a different answer is not a
    speedup.
    """
    length = config.arima_length if model == "Arima" else config.length
    train, rest, windows, positions = _forecast_fixture(length)
    outputs = {}
    timings = {}
    for kernel, forecaster in zip((True, False),
                                  _forecaster_pair(model, config)):
        timings[(kernel, "fit")] = best_of(
            lambda f=forecaster: f.fit(train, rest), config.repeats)
        timings[(kernel, "predict")] = best_of(
            lambda f=forecaster: f.predict(windows, positions), config.repeats)
        outputs[kernel] = (
            forecaster.predict(windows, positions).tobytes(),
            getattr(forecaster, "validation_history", None))
    fit_kernel = timings[(True, "fit")]
    fit_scalar = timings[(False, "fit")]
    predict_kernel = timings[(True, "predict")]
    predict_scalar = timings[(False, "predict")]
    return {
        "model": model,
        "kernel_fit_ms": round(fit_kernel * 1e3, 3),
        "scalar_fit_ms": round(fit_scalar * 1e3, 3),
        "fit_speedup": round(fit_scalar / fit_kernel, 2),
        "kernel_predict_ms": round(predict_kernel * 1e3, 3),
        "scalar_predict_ms": round(predict_scalar * 1e3, 3),
        "predict_speedup": round(predict_scalar / predict_kernel, 2),
        "windows": len(windows),
        "forecasts_identical": outputs[True] == outputs[False],
        "floor": FORECASTING_SPEEDUP_FLOORS.get(model, 1.0),
    }


def bench_cache(config: ForecastingBenchConfig) -> dict:
    """Cache put / cold (zero-copy) get / memory-layer get timings."""
    import tempfile

    from repro.compression.base import CompressionResult
    from repro.core.cache import DiskCache
    from repro.datasets.timeseries import TimeSeries

    rng = np.random.default_rng(0)
    series = TimeSeries(rng.standard_normal(config.cache_length))
    value = CompressionResult("BENCH", 0.1, series, series,
                              b"\x00" * 4096, b"\x00" * 2048, 1)
    with tempfile.TemporaryDirectory() as directory:
        cache = DiskCache(directory)
        put_s = best_of(lambda: cache.put("bench", value), config.repeats)
        cold_s = float("inf")
        for _ in range(max(1, config.repeats)):
            cache.clear_memory()
            start = WALL()
            loaded = cache.get("bench")
            cold_s = min(cold_s, WALL() - start)
        memory_s = best_of(lambda: cache.get("bench"), config.repeats)
        # the zero-copy contract: array payloads come back as views over
        # the file mapping, not as deserialized copies
        base = loaded.original.values
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        zero_copy = not isinstance(base, np.ndarray)
    return {
        "payload_values": config.cache_length,
        "put_ms": round(put_s * 1e3, 3),
        "get_cold_ms": round(cold_s * 1e3, 3),
        "get_memory_ms": round(memory_s * 1e3, 4),
        "zero_copy": zero_copy,
    }


def run_forecasting_bench(config: ForecastingBenchConfig | None = None,
                          progress: Callable[[str], None] | None = None
                          ) -> dict:
    """Run the forecasting suite and return the report dictionary."""
    config = config or ForecastingBenchConfig()
    say = progress or (lambda message: None)
    models: dict[str, dict] = {}
    for model in config.models:
        with obs_trace.span("bench.forecaster", model=model):
            cell = bench_forecaster(model, config)
        say(f"{model:12s} fit kernel {cell['kernel_fit_ms']:9.1f}ms  "
            f"scalar {cell['scalar_fit_ms']:9.1f}ms  "
            f"speedup {cell['fit_speedup']:5.2f}x "
            f"(floor {cell['floor']:.2f}x)  "
            f"predict {cell['predict_speedup']:5.2f}x  "
            f"identical={cell['forecasts_identical']}")
        models[model] = cell
    say("cache ...")
    with obs_trace.span("bench.cache"):
        cache = bench_cache(config)
    say(f"cache: put {cache['put_ms']:.2f}ms  cold get "
        f"{cache['get_cold_ms']:.2f}ms  memory get "
        f"{cache['get_memory_ms']:.4f}ms  zero_copy={cache['zero_copy']}")
    return {
        "schema": SCHEMA_VERSION,
        "suite": "forecasting",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_metadata(),
        "config": config.to_dict(),
        "models": models,
        "cache": cache,
    }


def check_forecasting_report(report: dict,
                             min_speedup: float | None = None) -> list[str]:
    """Regression messages for a forecasting report.

    ``min_speedup`` multiplies every per-model floor (1.0 = the committed
    floors; CI smoke runs pass a smaller factor because tiny fixtures
    under-state the kernels' advantage).
    """
    if min_speedup is None:
        min_speedup = float(report.get("config", {}).get("min_speedup", 1.0))
    failures: list[str] = []
    for model, cell in report.get("models", {}).items():
        floor = float(cell.get("floor", 1.0)) * min_speedup
        if cell["fit_speedup"] < floor:
            failures.append(
                f"{model}: kernel fit speedup {cell['fit_speedup']:.2f}x "
                f"below floor {floor:.2f}x")
        if not cell.get("forecasts_identical", False):
            failures.append(f"{model}: kernel/scalar forecasts differ")
    cache = report.get("cache")
    if cache is not None and not cache.get("zero_copy", False):
        failures.append("cache: cold get returned a copied array instead of "
                        "a memory-mapped view")
    return failures


def check_report(report: dict, min_speedup: float | None = None) -> list[str]:
    """Regression messages; empty when every kernel clears ``min_speedup``."""
    if min_speedup is None:
        min_speedup = float(report.get("config", {}).get("min_speedup", 1.0))
    failures: list[str] = []
    for method, cells in report.get("methods", {}).items():
        for cell in cells:
            speedup = cell["compress_speedup"]
            if speedup < min_speedup:
                failures.append(
                    f"{method} at eps={cell['error_bound']}: kernel compress "
                    f"speedup {speedup:.2f}x below floor {min_speedup:.2f}x")
            if not cell.get("payloads_identical", False):
                failures.append(
                    f"{method} at eps={cell['error_bound']}: kernel/scalar "
                    f"payloads differ")
    overhead = report.get("obs_overhead")
    if overhead is not None:
        percent = float(overhead["overhead_percent"])
        ceiling = float(overhead.get(
            "max_percent",
            report.get("config", {}).get("max_obs_overhead_percent",
                                         DEFAULT_MAX_OBS_OVERHEAD_PERCENT)))
        if percent > ceiling:
            failures.append(
                f"disabled-mode observability overhead {percent:.4f}% "
                f"exceeds the {ceiling:.1f}% ceiling")
    return failures


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=False)
        stream.write("\n")


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)
