"""Frozen job specifications for the task-graph runtime.

The paper's experimental grid (Algorithm 1) decomposes into four kinds of
work, each expressed here as an immutable, content-addressed job spec:

- :class:`CompressJob` — compress one split part (or the full series) of a
  dataset with one method at one error bound;
- :class:`TrainJob` — fit one forecaster on one dataset/seed, optionally on
  decompressed data (the Figure 7 retraining variant);
- :class:`ForecastJob` — evaluate one trained model on (possibly
  transformed) test windows, producing a ``ScenarioRecord``;
- :class:`FeatureJob` — relative characteristic differences for one
  (dataset, method, bound) cell (Tables 4/6).

A job's :meth:`~JobSpec.key` is a stable content hash over its kind and
every field, so identical specs share one cache entry and any field change
produces a fresh key; no caller builds a cache key by hand, so two layers
can never disagree on one.  Jobs declare their inputs
via :meth:`~JobSpec.dependencies`, from which :class:`repro.runtime.graph.
TaskGraph` builds the execution DAG, and compute their result in
:meth:`~JobSpec.run` given a :class:`RuntimeContext` and the dependency
results.  Jobs and their results are picklable, so the executor can ship
them to worker processes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Hashable
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from repro.compression.registry import make as make_compressor
from repro.core.results import RAW, ScenarioRecord
from repro.datasets.registry import DATASET_NAMES, load
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.datasets.splits import Split, split
from repro.datasets.timeseries import Dataset, TimeSeries
from repro.features.registry import compute_all, relative_difference
from repro.forecasting.base import Forecaster
from repro.forecasting.registry import make as make_model
from repro.forecasting.windows import paired_windows
from repro.memo import LRU, ContentMemo
from repro.metrics.pointwise import METRICS

#: bump to invalidate every runtime cache entry after a semantic change
KEY_VERSION = 1


def freeze_kwargs(kwargs: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Canonicalize a kwargs dict into a hashable, sorted tuple of items.

    Nested dicts/lists are frozen recursively so specs stay hashable and
    their reprs (the content-hash payload) are order-independent.
    """

    def freeze(value: Any) -> Any:
        if isinstance(value, dict):
            return tuple(sorted((k, freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    return tuple(sorted((name, freeze(value))
                        for name, value in kwargs.items()))


class Source:
    """One (dataset, length) and the values derived from its raw series,
    kept and dropped together.  :meth:`series` maps a part name to a
    series; :meth:`derived` memoizes the rest (split, characteristics,
    detections, gzip sizes)."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._derived: dict[Hashable, Any] = {}

    def derived(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``compute()``, run once per entry and ``key``."""
        if key not in self._derived:
            self._derived.setdefault(key, compute())
        return self._derived[key]

    @property
    def split(self) -> Split:
        return self.derived("split", lambda: split(self.dataset))

    def series(self, part: str) -> TimeSeries:
        """The target series of ``part``: ``"full"`` for the whole
        dataset, else the ``"train"``, ``"validation"`` or ``"test"``
        split part."""
        if part == "full":
            return self.dataset.target_series
        return getattr(self.split, part).target_series


class RuntimeContext:
    """Per-process table of sources, and a memo of characteristics.

    Jobs receive a context instead of loading datasets themselves so that
    one process (the serial executor, or each pool worker) loads a
    (dataset, length) once.  The table holds one :class:`Source` per
    registered dataset (one length each), least recently used dropped
    first, so a daemon asked for ever new lengths stays flat.
    Characteristics are memoized by content: codecs often decode
    different cells to the same series, and the catalogue runs once per
    distinct series.
    """

    #: (dataset, length) sources kept: one length per registered dataset
    SOURCES = len(DATASET_NAMES)
    #: distinct series whose characteristics are kept (least recently
    #: used dropped first); a 64-cell grid has at most 16 test splits
    FEATURE_MEMO_SIZE = 64

    def __init__(self) -> None:
        self._sources = LRU(self.SOURCES)
        self._features = ContentMemo(self.FEATURE_MEMO_SIZE)

    def source(self, name: str, length: int | None) -> Source:
        """The entry of ``(name, length)``, loading the dataset on a miss."""
        key = (name, length)
        entry = self._sources.get(key)
        if entry is None:
            with obs_trace.span("data.load", dataset=name, length=length):
                entry = Source(load(name, length=length))
            self._sources.put(key, entry)
        return entry

    def features(self, values: np.ndarray, period: int) -> dict[str, float]:
        """All 42 characteristics of ``values``, memoized by the series'
        bytes and ``period``: a series seen before is not recomputed."""
        return self._features.get(
            values, period, lambda series: compute_all(series, period))

    def raw_test_features(self, name: str, length: int | None
                          ) -> dict[str, float]:
        """All 42 characteristics of the raw test split.

        Kept on the source entry, outside the bounded content memo, so
        evicting transformed series never makes the raw split run the
        catalogue again.  The first call goes through :meth:`features`,
        so a transformed series equal to the raw split reuses this
        result.
        """
        source = self.source(name, length)
        return source.derived("features", lambda: self.features(
            source.series("test").values, source.dataset.seasonal_period))


@dataclass(frozen=True)
class JobSpec:
    """An immutable, content-addressed unit of work."""

    #: short phase label ("compress", "train", ...) used in keys and manifests
    kind: ClassVar[str] = "?"

    def key(self) -> str:
        """Stable content hash over the job kind and every field value."""
        payload = repr((self.kind, KEY_VERSION,
                        tuple((f.name, getattr(self, f.name))
                              for f in fields(self))))
        digest = hashlib.sha1(payload.encode()).hexdigest()[:24]
        return f"{self.kind}-{digest}"

    def describe(self) -> str:
        """One human-readable line naming the job, for failure reports.

        ``JobError`` messages and manifest ``FailureRecord`` lines use this
        instead of the opaque content-hash key so a failing grid cell can
        be identified at a glance.
        """
        parts = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in fields(self))
        return f"{self.kind}({parts})"

    def dependencies(self) -> tuple[JobSpec, ...]:
        """Jobs whose results :meth:`run` consumes (empty by default)."""
        return ()

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]) -> Any:
        """Execute the job; ``deps`` maps dependency keys to their results."""
        raise NotImplementedError


@dataclass(frozen=True)
class CompressJob(JobSpec):
    """Compress one part of a dataset's target series."""

    kind: ClassVar[str] = "compress"

    dataset: str
    length: int | None
    method: str
    error_bound: float
    #: "train" / "validation" / "test" split part, or "full" for the whole
    #: target series (the Figure 2/3 sweeps)
    part: str = "test"

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]):
        series = ctx.source(self.dataset, self.length).series(self.part)
        with obs_trace.span("compress.run", method=self.method,
                            error_bound=self.error_bound, part=self.part):
            return make_compressor(self.method).compress(series,
                                                         self.error_bound)


@dataclass(frozen=True)
class TrainJob(JobSpec):
    """Fit one forecaster; ``train_on`` switches to decompressed data."""

    kind: ClassVar[str] = "train"

    model: str
    dataset: str
    length: int | None
    input_length: int
    horizon: int
    seed: int
    #: frozen extra constructor kwargs (see :func:`freeze_kwargs`)
    model_kwargs: tuple[tuple[str, Any], ...] = ()
    #: ``(method, error_bound)`` trains on decompressed splits (Figure 7)
    train_on: tuple[str, float] | None = None

    def _split_jobs(self) -> tuple[CompressJob, CompressJob]:
        method, error_bound = self.train_on
        return (CompressJob(self.dataset, self.length, method, error_bound,
                            part="train"),
                CompressJob(self.dataset, self.length, method, error_bound,
                            part="validation"))

    def dependencies(self) -> tuple[JobSpec, ...]:
        return () if self.train_on is None else self._split_jobs()

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]) -> Forecaster:
        if self.train_on is None:
            source = ctx.source(self.dataset, self.length)
            train = source.series("train").values
            validation = source.series("validation").values
        else:
            train_job, validation_job = self._split_jobs()
            train = deps[train_job.key()].decompressed.values
            validation = deps[validation_job.key()].decompressed.values
        model = make_model(self.model, input_length=self.input_length,
                           horizon=self.horizon, seed=self.seed,
                           **dict(self.model_kwargs))
        with obs_trace.span("train.fit", model=self.model,
                            dataset=self.dataset, seed=self.seed,
                            retrain=self.train_on is not None):
            model.fit(train, validation)
        obs_metrics.inc("train.fits")
        return model


def evaluate_windows(model: Forecaster, inputs: np.ndarray,
                     targets: np.ndarray, positions: np.ndarray
                     ) -> dict[str, float]:
    """Score one model on evaluation windows with every pointwise metric.

    ``positions`` (absolute tick indices of each window) are passed only to
    models that declare ``uses_positions``.
    """
    if model.uses_positions:
        predictions = model.predict(inputs, positions=positions)
    else:
        predictions = model.predict(inputs)
    flat_targets = targets.ravel()
    flat_predictions = predictions.ravel()
    return {metric: fn(flat_targets, flat_predictions)
            for metric, fn in METRICS.items()}


def test_windows(ctx: RuntimeContext, dataset: str, length: int | None,
                 input_length: int, horizon: int, stride: int,
                 input_values: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluation windows over the test split: inputs, raw targets, ticks.

    Inputs come from ``input_values`` (a transformed series) when given and
    from the raw test split otherwise; targets are always raw (Algorithm 1
    scores predictions against the uncompressed future).
    """
    source = ctx.source(dataset, length)
    raw_test = source.series("test").values
    if input_values is None:
        input_values = raw_test
    inputs, targets = paired_windows(input_values, raw_test, input_length,
                                     horizon, stride)
    test_start = len(source.dataset) - len(raw_test)
    offsets = np.arange(0, len(raw_test) - input_length - horizon + 1, stride)
    positions = test_start + offsets.astype(np.float64)
    return inputs, targets, positions


@dataclass(frozen=True)
class ForecastJob(JobSpec):
    """Evaluate one (model, dataset, method, bound, seed) grid cell."""

    kind: ClassVar[str] = "forecast"

    model: str
    dataset: str
    length: int | None
    input_length: int
    horizon: int
    eval_stride: int
    seed: int
    method: str = RAW
    error_bound: float = 0.0
    #: Figure 7 variant: the model is also trained on decompressed data
    retrained: bool = False
    model_kwargs: tuple[tuple[str, Any], ...] = ()

    def train_job(self) -> TrainJob:
        train_on = ((self.method, self.error_bound) if self.retrained
                    else None)
        return TrainJob(self.model, self.dataset, self.length,
                        self.input_length, self.horizon, self.seed,
                        model_kwargs=self.model_kwargs, train_on=train_on)

    def transform_job(self) -> CompressJob | None:
        if self.method == RAW:
            return None
        return CompressJob(self.dataset, self.length, self.method,
                           self.error_bound, part="test")

    def dependencies(self) -> tuple[JobSpec, ...]:
        transform = self.transform_job()
        train = self.train_job()
        return (train,) if transform is None else (train, transform)

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]
            ) -> ScenarioRecord:
        model = deps[self.train_job().key()]
        transform = self.transform_job()
        input_values = (None if transform is None
                        else deps[transform.key()].decompressed.values)
        inputs, targets, positions = test_windows(
            ctx, self.dataset, self.length, self.input_length, self.horizon,
            self.eval_stride, input_values)
        with obs_trace.span("forecast.evaluate", model=self.model,
                            dataset=self.dataset, method=self.method,
                            error_bound=self.error_bound,
                            windows=len(inputs)):
            metrics = evaluate_windows(model, inputs, targets, positions)
        return ScenarioRecord(self.dataset, self.model, self.method,
                              self.error_bound, self.seed, metrics,
                              retrained=self.retrained)


@dataclass(frozen=True)
class FeatureJob(JobSpec):
    """Characteristic deltas of one transformed test split vs raw."""

    kind: ClassVar[str] = "features"

    dataset: str
    length: int | None
    method: str
    error_bound: float

    def transform_job(self) -> CompressJob:
        return CompressJob(self.dataset, self.length, self.method,
                           self.error_bound, part="test")

    def dependencies(self) -> tuple[JobSpec, ...]:
        return (self.transform_job(),)

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]
            ) -> dict[str, float]:
        original = ctx.raw_test_features(self.dataset, self.length)
        transformed = deps[self.transform_job().key()].decompressed.values
        period = ctx.source(self.dataset, self.length).dataset.seasonal_period
        return relative_difference(original, ctx.features(transformed, period))
