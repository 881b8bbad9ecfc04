"""Versioned, typed request objects — the single evaluation contract.

Every frontend speaks these four dataclasses:

- :class:`CompressRequest` — compress one split part (or the full target
  series) of one dataset with one method at one error bound;
- :class:`ForecastRequest` — evaluate one (model, dataset, method, bound,
  seed) grid cell, optionally retrained on decompressed data;
- :class:`GridRequest` — a whole sub-grid (datasets x models x methods x
  bounds) run as ONE task graph; ``None`` axes resolve against the
  service's :class:`~repro.core.config.EvaluationConfig` defaults;
- :class:`TraceRequest` — summarize a recorded run directory.

The live-streaming surface adds three more: :class:`StreamOpenRequest`
creates one ``/v1/stream`` session (streaming compressor, bound, rolling
forecaster, horizon), :class:`StreamPushRequest` feeds it a chunk of
ticks, and :class:`StreamCloseRequest` flushes and ends it (optionally
carrying the final ticks).

Requests are frozen and carry no behaviour beyond :meth:`validate`, which
checks *semantics* (known dataset/method/model names, valid split parts,
sane numeric ranges) and raises :class:`~repro.api.errors.ValidationError`
— shape validation against the JSON schemas lives in
:mod:`repro.api.schema`, applied by the codec when a request arrives as a
payload.  In-process callers, the CLI subcommands, and the
``repro-serve`` daemon all construct exactly these objects and hand them
to :class:`~repro.api.service.ApiService`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api.errors import ValidationError
from repro.compression.registry import (GRID_METHODS, STREAMING_METHODS)
from repro.core.results import RAW
from repro.datasets.registry import DATASET_NAMES
from repro.datasets.synthetic import PAPER_LENGTHS
from repro.forecasting.rolling import STREAM_MODEL_NAMES
from repro.registry import model_names, task_names

#: wire version stamped into every encoded payload ("v" field)
API_VERSION = 1

#: compression methods accepted over the API (every grid-selectable
#: error-bounded method plus the lossless baseline) — registry-derived
COMPRESS_METHODS: tuple[str, ...] = GRID_METHODS + ("GORILLA",)

#: split parts a CompressRequest may target
PARTS: tuple[str, ...] = ("train", "validation", "test", "full")

#: downstream task a grid cell evaluates when none is requested
DEFAULT_TASK = "forecasting"


def _check(condition: bool, message: str, key: str) -> None:
    if not condition:
        raise ValidationError(message, key=key)


def _check_length(length: int | None, datasets) -> None:
    """A requested length is positive and no longer than the Table 1
    length of each named dataset (the largest when none is named): the
    generators allocate from this number."""
    if length is None:
        return
    limit = min((PAPER_LENGTHS[name] for name in datasets),
                default=max(PAPER_LENGTHS.values()))
    _check(0 < length <= limit,
           f"length must be in [1, {limit}], got {length}", "length")


@dataclass(frozen=True)
class CompressRequest:
    """Compress one part of one dataset's target series."""

    dataset: str
    method: str
    error_bound: float
    #: "train" / "validation" / "test" split part, or "full" for the
    #: whole target series (the Figure 2/3 sweeps)
    part: str = "full"
    #: series length (None = the dataset's full/paper length)
    length: int | None = None

    def validate(self) -> "CompressRequest":
        _check(self.dataset in DATASET_NAMES,
               f"unknown dataset {self.dataset!r} "
               f"(choose from {', '.join(DATASET_NAMES)})", "dataset")
        _check(self.method in COMPRESS_METHODS,
               f"unknown method {self.method!r} "
               f"(choose from {', '.join(COMPRESS_METHODS)})", "method")
        _check(self.error_bound >= 0.0,
               f"error_bound must be >= 0, got {self.error_bound}",
               "error_bound")
        _check(self.part in PARTS,
               f"unknown part {self.part!r} (choose from {', '.join(PARTS)})",
               "part")
        _check_length(self.length, (self.dataset,))
        return self


@dataclass(frozen=True)
class ForecastRequest:
    """Evaluate one (model, dataset, method, bound, seed) grid cell."""

    model: str
    dataset: str
    #: RAW evaluates the uncompressed baseline (error_bound ignored as 0.0)
    method: str = RAW
    error_bound: float = 0.0
    seed: int = 0
    #: Figure 7 variant: also train on decompressed data
    retrained: bool = False
    #: series length (None = the service config's dataset_length)
    length: int | None = None
    #: downstream task the cell scores ("forecasting" or "anomaly");
    #: absent on pre-task payloads, which default here
    task: str = DEFAULT_TASK

    def validate(self) -> "ForecastRequest":
        _check(self.task in task_names(),
               f"unknown task {self.task!r} "
               f"(choose from {', '.join(task_names())})", "task")
        models = model_names(task=self.task)
        _check(self.model in models,
               f"unknown {self.task} model {self.model!r} "
               f"(choose from {', '.join(models)})", "model")
        _check(self.dataset in DATASET_NAMES,
               f"unknown dataset {self.dataset!r}", "dataset")
        _check(self.method == RAW or self.method in GRID_METHODS,
               f"unknown method {self.method!r} "
               f"(choose from RAW, {', '.join(GRID_METHODS)})", "method")
        _check(self.error_bound >= 0.0,
               f"error_bound must be >= 0, got {self.error_bound}",
               "error_bound")
        _check(self.seed >= 0, f"seed must be >= 0, got {self.seed}", "seed")
        _check(not (self.method == RAW and self.retrained),
               "retrained=True requires a lossy method", "retrained")
        _check(not (self.retrained and self.task != DEFAULT_TASK),
               "retrained=True applies to the forecasting task only",
               "retrained")
        _check_length(self.length, (self.dataset,))
        return self


@dataclass(frozen=True)
class GridRequest:
    """Baseline + scenario cells for a whole sub-grid in one task graph."""

    #: None axes resolve to the service config's defaults
    datasets: tuple[str, ...] | None = None
    models: tuple[str, ...] | None = None
    methods: tuple[str, ...] | None = None
    error_bounds: tuple[float, ...] | None = None
    include_baseline: bool = True
    retrained: bool = False
    #: seeds per model (None = the config's deep/simple seed counts)
    seeds: int | None = None
    length: int | None = None
    #: downstream task of every cell; absent on pre-task payloads,
    #: which default here (and hash to the same cache keys as before)
    task: str = DEFAULT_TASK

    def validate(self) -> "GridRequest":
        _check(self.task in task_names(),
               f"unknown task {self.task!r} "
               f"(choose from {', '.join(task_names())})", "task")
        models = model_names(task=self.task)
        for name in self.datasets or ():
            _check(name in DATASET_NAMES, f"unknown dataset {name!r}",
                   "datasets")
        for name in self.models or ():
            _check(name in models,
                   f"unknown {self.task} model {name!r} "
                   f"(choose from {', '.join(models)})", "models")
        for name in self.methods or ():
            _check(name in GRID_METHODS, f"unknown method {name!r}",
                   "methods")
        for bound in self.error_bounds or ():
            _check(bound >= 0.0, f"error_bound must be >= 0, got {bound}",
                   "error_bounds")
        _check(not (self.retrained and self.task != DEFAULT_TASK),
               "retrained=True applies to the forecasting task only",
               "retrained")
        _check(self.seeds is None or self.seeds > 0,
               f"seeds must be positive, got {self.seeds}", "seeds")
        _check_length(self.length, self.datasets or ())
        return self


#: the tick type a chunk is checked for in one pass
_FLOAT = frozenset({float})


def _check_ticks(values, key: str) -> None:
    """Finite numbers only; the message names the first bad index."""
    if _FLOAT.issuperset(map(type, values)) and all(map(math.isfinite,
                                                        values)):
        return  # the wire's case, checked without a Python-level loop
    for index, value in enumerate(values):
        if not (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value)):
            raise ValidationError(f"{key}[{index}] must be a finite number, "
                                  f"got {value!r}", key=key)


@dataclass(frozen=True)
class StreamOpenRequest:
    """Open one live ``/v1/stream`` session."""

    #: streaming compression method (one of :data:`STREAMING_METHODS`)
    method: str
    error_bound: float
    #: cap on emitted segment lengths (the 16-bit wire default)
    max_segment_length: int = 0xFFFF
    #: rolling forecaster refreshed as segments close
    forecaster: str = "Naive"
    #: values per rolling forecast
    horizon: int = 24
    #: refresh the forecast every K closed segments (0 = never)
    forecast_every: int = 8
    #: idle seconds before the server may expire the session
    #: (None = the server's default TTL)
    ttl_s: float | None = None

    def validate(self) -> "StreamOpenRequest":
        _check(self.method in STREAMING_METHODS,
               f"unknown streaming method {self.method!r} "
               f"(choose from {', '.join(STREAMING_METHODS)})", "method")
        _check(self.error_bound >= 0.0,
               f"error_bound must be >= 0, got {self.error_bound}",
               "error_bound")
        _check(1 <= self.max_segment_length <= 0xFFFF,
               f"max_segment_length must be in [1, 65535], "
               f"got {self.max_segment_length}", "max_segment_length")
        _check(self.forecaster in STREAM_MODEL_NAMES,
               f"unknown rolling forecaster {self.forecaster!r} "
               f"(choose from {', '.join(STREAM_MODEL_NAMES)})", "forecaster")
        _check(self.horizon > 0,
               f"horizon must be positive, got {self.horizon}", "horizon")
        _check(self.forecast_every >= 0,
               f"forecast_every must be >= 0, got {self.forecast_every}",
               "forecast_every")
        _check(self.ttl_s is None or self.ttl_s > 0,
               f"ttl_s must be positive, got {self.ttl_s}", "ttl_s")
        return self


@dataclass(frozen=True)
class StreamPushRequest:
    """One chunk of ticks for an open stream session."""

    values: tuple[float, ...]

    def validate(self) -> "StreamPushRequest":
        _check(len(self.values) > 0, "values must be non-empty", "values")
        _check_ticks(self.values, "values")
        return self


@dataclass(frozen=True)
class StreamCloseRequest:
    """Flush and end a stream session (may carry the final ticks)."""

    values: tuple[float, ...] = ()

    def validate(self) -> "StreamCloseRequest":
        _check_ticks(self.values, "values")
        return self


@dataclass(frozen=True)
class TraceRequest:
    """Summarize a run directory written by ``--trace`` / ``repro-serve``."""

    run_dir: str
    #: rows per section (slowest jobs, span tree)
    top: int = 10

    def validate(self) -> "TraceRequest":
        _check(bool(self.run_dir), "run_dir must be non-empty", "run_dir")
        _check(self.top > 0, f"top must be positive, got {self.top}", "top")
        return self
