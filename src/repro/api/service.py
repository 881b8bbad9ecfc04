"""The one execution engine behind every frontend.

The paper's Algorithm 1 (EvaluateScenario) runs here, whether it is
called in-process, from the ``repro-eval`` CLI or behind ``repro-serve``.
:class:`ApiService` owns the shared :class:`~repro.core.cache.DiskCache`
and :class:`~repro.runtime.scheduler.Scheduler` and knows how to turn each
request type into frozen job specs, run them as ONE task graph, and map
the results (or their failures) back to the requesting order:

- :meth:`compress_batch` — N :class:`CompressRequest`\\ s → one graph
  (duplicate signatures collapse to a single job by content-hash, so a
  micro-batch of 64 identical requests costs one execution);
- :meth:`forecast_batch` — N :class:`ForecastRequest`\\ s → one graph
  sharing trained models and transformed splits across cells;
- :meth:`grid` — a :class:`GridRequest` resolved against the config,
  producing the :class:`~repro.core.results.ScenarioRecord` list plus the
  run manifest;
- :meth:`trace` — renders a recorded run directory.

Batch methods return, *positionally per request*, either the typed
response or an :class:`~repro.api.errors.ErrorEnvelope` — under
``keep_going`` a failing cell degrades to its envelope while healthy
siblings still answer.  In fail-fast mode the scheduler's
:class:`~repro.runtime.manifest.JobError` propagates unchanged to
in-process callers; the server catches it and envelopes it.

All graph runs serialize through one lock: the scheduler mutates shared
state (``last_manifest``, the run context), and the server drives this
object from many handler threads at once.  The micro-batcher in front of
it is what keeps the lock from becoming a per-request bottleneck.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

import repro.obs as obs
from repro.api.errors import (ErrorEnvelope, envelope_from_failure,
                              skipped_envelope)
from repro.api.requests import (CompressRequest, ForecastRequest,
                                GridRequest, TraceRequest)
from repro.api.responses import (CompressResponse, ForecastResponse,
                                 TraceResponse)
from repro.compression.base import CompressionResult
from repro.compression.serialize import compression_ratio, raw_gz_size
from repro.core.cache import Cache, DiskCache
from repro.core.config import EvaluationConfig
from repro.core.results import ScenarioRecord
from repro.datasets.timeseries import Dataset
from repro.datasets.splits import Split
from repro.metrics.errors import transformation_error
from repro.metrics.pointwise import METRICS
from repro.runtime.backends import make_backend
from repro.runtime.graph import TaskGraph
from repro.runtime.jobs import (CompressJob, FeatureJob, JobSpec, TrainJob,
                                freeze_kwargs)
from repro.runtime.manifest import FailureRecord, RunManifest
from repro.runtime.scheduler import Scheduler


class ApiService:
    """Executes typed API requests over the task-graph runtime."""

    def __init__(self, config: EvaluationConfig | None = None) -> None:
        self.config = config or EvaluationConfig()
        self.cache: Cache = DiskCache(self.config.cache_dir)
        backend_options = {}
        if self.config.backend == "queue":
            backend_options = {
                "queue_path": self.config.queue_path,
                "lease_s": self.config.queue_lease_s,
            }
        self.scheduler = Scheduler(
            self.cache,
            backend=make_backend(self.config.backend,
                                 max_workers=self.config.max_workers,
                                 **backend_options),
            job_timeout=self.config.job_timeout,
            job_retries=self.config.job_retries,
            keep_going=self.config.keep_going)
        self.context = self.scheduler.context
        # gzip size of each raw source series, the CR denominator, keyed
        # (dataset, length, part): a pure function of a series the run
        # context already keeps, so cache-hit batches skip the CSV + gzip.
        # Unlocked: two batches racing on a miss both store the same int.
        self._raw_sizes: dict[tuple, int] = {}
        self._lock = threading.RLock()
        self._trace_dir = self.config.trace_dir
        if self._trace_dir is not None:
            os.makedirs(self._trace_dir, exist_ok=True)
            obs.configure(trace_path=os.path.join(self._trace_dir,
                                                  "trace.jsonl"))

    # -- shared runtime access -------------------------------------------------

    @property
    def last_manifest(self) -> RunManifest | None:
        return self.scheduler.last_manifest

    @property
    def last_failures(self) -> list[FailureRecord]:
        manifest = self.scheduler.last_manifest
        return list(manifest.failures) if manifest is not None else []

    def failure_envelopes(self, manifest: RunManifest | None = None
                          ) -> list[ErrorEnvelope]:
        """Stable envelopes of a manifest's failures (default: last run)."""
        manifest = manifest if manifest is not None else self.last_manifest
        if manifest is None:
            return []
        return [envelope_from_failure(failure)
                for failure in manifest.failures]

    def dataset(self, name: str, length: int | None = None) -> Dataset:
        return self.context.dataset(name, self._length(length))

    def split(self, name: str, length: int | None = None) -> Split:
        return self.context.split(name, self._length(length))

    def run_jobs(self, jobs: list[JobSpec]) -> dict[str, Any]:
        """Run arbitrary job specs as one graph (the in-process escape
        hatch for trained models and other job values)."""
        graph = TaskGraph()
        for job in jobs:
            graph.add(job)
        with self._lock:
            try:
                return self.scheduler.run(graph)
            finally:
                self._write_manifest()

    def _write_manifest(self) -> None:
        """Persist the last run's manifest next to the trace file.

        Runs in a ``finally`` so failed runs (including keep-going runs
        whose manifest holds only failures) still leave an inspectable
        ``manifest.json`` for ``repro-eval trace``.
        """
        manifest = self.scheduler.last_manifest
        if self._trace_dir is None or manifest is None:
            return
        path = os.path.join(self._trace_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(manifest.to_dict(), stream, indent=2, default=str)
            stream.write("\n")

    # -- request -> job translation --------------------------------------------

    def _length(self, length: int | None) -> int | None:
        """A request's length, falling back to the configured default."""
        return length if length is not None else self.config.dataset_length

    def compress_job(self, request: CompressRequest) -> CompressJob:
        return CompressJob(request.dataset, self._length(request.length),
                           request.method, request.error_bound,
                           part=request.part)

    def _model_kwargs(self, model_name: str, dataset_name: str,
                      length: int | None) -> dict:
        kwargs = dict(self.config.model_kwargs.get(model_name, {}))
        if model_name == "Arima":
            dataset = self.context.dataset(dataset_name, length)
            kwargs.setdefault("seasonal_period", dataset.seasonal_period)
        return kwargs

    def train_job(self, model_name: str, dataset_name: str, seed: int,
                  train_on: tuple[str, float] | None = None,
                  length: int | None = None) -> TrainJob:
        length = self._length(length)
        kwargs = self._model_kwargs(model_name, dataset_name, length)
        return TrainJob(model_name, dataset_name, length,
                        self.config.input_length, self.config.horizon, seed,
                        model_kwargs=freeze_kwargs(kwargs), train_on=train_on)

    def forecast_job(self, request: ForecastRequest) -> JobSpec:
        """The job spec for one grid cell, dispatched on the cell's task.

        Each registered task's ``job_builder`` maps the request onto its
        own job type — ``ForecastJob`` for ``"forecasting"`` (whose field
        list, and hence cache keys, predate the task axis and stay
        untouched), ``AnomalyJob`` for ``"anomaly"``.
        """
        from repro import registry as _registry

        builder = _registry.task_info(request.task).job_builder
        return builder(self, request)

    # -- failure mapping --------------------------------------------------------

    def _envelopes_by_key(self) -> dict[str, ErrorEnvelope]:
        """Envelope per failed or skipped job key of the last run."""
        manifest = self.scheduler.last_manifest
        if manifest is None:
            return {}
        out = {failure.key: envelope_from_failure(failure)
               for failure in manifest.failures}
        for key in manifest.skipped:
            kind = key.split("-", 1)[0]
            out.setdefault(key, skipped_envelope(kind, key))
        return out

    # -- compress ---------------------------------------------------------------

    def compress_batch(self, requests: list[CompressRequest]
                       ) -> list[CompressResponse | ErrorEnvelope]:
        """One task graph for N compress requests; responses in order.

        Requests sharing a (dataset, method, bound, part, length)
        signature collapse to one job — the graph deduplicates by
        content-hash key — so coalesced server batches and full-grid
        sweeps cost each distinct cell exactly once.
        """
        jobs = [self.compress_job(request) for request in requests]
        values = self.run_jobs(list(jobs))
        envelopes = self._envelopes_by_key()
        out: list[CompressResponse | ErrorEnvelope] = []
        for request, job in zip(requests, jobs):
            result = values.get(job.key())
            if result is None:
                out.append(envelopes.get(job.key()) or ErrorEnvelope(
                    kind=job.kind, key=job.key(),
                    message="job produced no result",
                    description=job.describe()))
                continue
            out.append(self._compress_response(request, job, result))
        return out

    def _source_series(self, job: CompressJob):
        if job.part == "full":
            return self.context.dataset(job.dataset, job.length).target_series
        parts = self.context.split(job.dataset, job.length)
        return getattr(parts, job.part).target_series

    def _compress_response(self, request: CompressRequest, job: CompressJob,
                           result: CompressionResult) -> CompressResponse:
        series = self._source_series(job)
        size_key = (job.dataset, job.length, job.part)
        if size_key not in self._raw_sizes:
            self._raw_sizes[size_key] = raw_gz_size(series)
        te = {}
        for metric in METRICS:
            try:
                te[metric] = transformation_error(series, result.decompressed,
                                                  metric)
            except ZeroDivisionError:
                # e.g. R against a constant decompressed series
                te[metric] = float("nan")
        return CompressResponse(
            dataset=request.dataset, method=request.method,
            error_bound=request.error_bound, part=job.part,
            compressed_size=result.compressed_size,
            compression_ratio=compression_ratio(self._raw_sizes[size_key],
                                                result.compressed_size),
            num_segments=result.num_segments, te=te)

    def transform(self, request: CompressRequest) -> CompressionResult:
        """The raw :class:`CompressionResult` of one request (in-process
        only — decompressed series are not part of the wire contract)."""
        job = self.compress_job(request)
        return self.run_jobs([job])[job.key()]

    # -- forecast ---------------------------------------------------------------

    def forecast_batch(self, requests: list[ForecastRequest]
                       ) -> list[ForecastResponse | ErrorEnvelope]:
        """One task graph for N forecast cells; responses in order."""
        jobs = [self.forecast_job(request) for request in requests]
        values = self.run_jobs(list(jobs))
        envelopes = self._envelopes_by_key()
        out: list[ForecastResponse | ErrorEnvelope] = []
        for job in jobs:
            record = values.get(job.key())
            if record is None:
                out.append(envelopes.get(job.key()) or ErrorEnvelope(
                    kind=job.kind, key=job.key(),
                    message="job produced no result",
                    description=job.describe()))
            else:
                out.append(ForecastResponse.from_record(record))
        return out

    # -- grid -------------------------------------------------------------------

    def _seeds_for(self, model: str, override: int | None,
                   task: str) -> tuple[int, ...]:
        if override is not None:
            return tuple(range(override))
        if task != "forecasting":
            # detectors are deterministic: one seed unless asked for more
            return (0,)
        return self.config.seeds_for(model)

    def grid_requests(self, request: GridRequest) -> list[ForecastRequest]:
        """The per-cell requests a grid expands to, in record order.

        The model axis defaults per task: the config's models for
        forecasting, every registered detector for anomaly.
        """
        from repro import registry as _registry

        datasets = request.datasets or self.config.datasets
        if request.models:
            models = request.models
        elif request.task == "forecasting":
            models = self.config.models
        else:
            models = _registry.model_names(task=request.task)
        methods = request.methods or self.config.compressors
        error_bounds = request.error_bounds or self.config.error_bounds
        cells: list[ForecastRequest] = []
        for dataset_name in datasets:
            for model_name in models:
                seeds = self._seeds_for(model_name, request.seeds,
                                        request.task)
                if request.include_baseline:
                    cells += [ForecastRequest(model_name, dataset_name,
                                              seed=seed,
                                              length=request.length,
                                              task=request.task)
                              for seed in seeds]
                cells += [ForecastRequest(model_name, dataset_name,
                                          method=method,
                                          error_bound=error_bound, seed=seed,
                                          retrained=request.retrained,
                                          length=request.length,
                                          task=request.task)
                          for method in methods
                          for error_bound in error_bounds
                          for seed in seeds]
        return cells

    def grid(self, request: GridRequest
             ) -> tuple[list[ScenarioRecord], RunManifest]:
        """Run a whole sub-grid as one graph; completed records in order.

        With ``keep_going`` failed cells are absent from the record list
        and described by the returned manifest's failures (also
        :attr:`last_failures` and :meth:`failure_envelopes`).
        """
        responses = self.forecast_batch(self.grid_requests(request))
        records = [response.to_record() for response in responses
                   if isinstance(response, ForecastResponse)]
        return records, self.scheduler.last_manifest

    # -- features ---------------------------------------------------------------

    def feature_deltas(self, dataset_name: str, methods: tuple[str, ...],
                       error_bounds: tuple[float, ...],
                       length: int | None = None
                       ) -> dict[tuple[str, float], dict[str, float]]:
        """Relative characteristic differences per (method, bound) cell."""
        length = self._length(length)
        jobs = {(method, error_bound): FeatureJob(dataset_name, length,
                                                  method, error_bound)
                for method in methods for error_bound in error_bounds}
        values = self.run_jobs(list(jobs.values()))
        return {cell: values[job.key()] for cell, job in jobs.items()
                if job.key() in values}

    # -- trace ------------------------------------------------------------------

    @staticmethod
    def trace(request: TraceRequest) -> TraceResponse:
        """Rendered summary of a recorded run directory.

        A static method: tracing reads a directory, not the runtime, so
        the CLI can serve it without constructing a scheduler."""
        from repro.obs.report import summarize_run

        lines = summarize_run(request.run_dir, top=request.top)
        return TraceResponse(run_dir=request.run_dir, lines=tuple(lines))
