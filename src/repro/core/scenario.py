"""The paper's evaluation scenario (Section 3.6, Algorithm 1).

A forecasting model is trained once on the raw training split; the test
split is lossy-compressed and decompressed at each error bound; the model
predicts from the transformed windows; and predictions are scored against
the *raw* future values.

:class:`Evaluation` is a thin **adapter over the typed API**
(:mod:`repro.api`): every method translates its arguments into the
request objects of the shared contract (:class:`~repro.api.requests.
CompressRequest`, :class:`~repro.api.requests.ForecastRequest`,
:class:`~repro.api.requests.GridRequest`), hands them to the
:class:`~repro.api.service.ApiService` — the same engine behind the CLI
subcommands and the ``repro-serve`` daemon — and converts the typed
responses back into the historical record types byte-identically.  The
retraining variant of Section 4.4.1 (Figure 7) rides on the same
requests via ``retrained=True``.

Grid-axis arguments (``methods``, ``error_bounds``, ...) are strictly
keyword-only: passing them positionally raises :class:`TypeError`.
Several axes share a type (tuples of names, tuples of floats), so a
positional mix-up would silently run the wrong grid instead of failing.
README.md's migration table lists the keyword call shapes.
"""

from __future__ import annotations

from repro.api.errors import ApiError, ErrorEnvelope
from repro.api.requests import CompressRequest, ForecastRequest, GridRequest
from repro.api.responses import CompressResponse, ForecastResponse
from repro.api.service import ApiService
from repro.compression.base import CompressionResult
from repro.compression.registry import make as make_compressor
from repro.core.cache import DiskCache
from repro.core.config import EvaluationConfig
from repro.core.results import CompressionRecord, ScenarioRecord
from repro.datasets.splits import Split
from repro.datasets.timeseries import Dataset, TimeSeries
from repro.forecasting.base import Forecaster
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import FailureRecord, RunManifest


class Evaluation:
    """Legacy façade: adapts the historical methods onto the typed API."""

    def __init__(self, config: EvaluationConfig | None = None) -> None:
        self._service = ApiService(config)
        self.config = self._service.config

    @property
    def api(self) -> ApiService:
        """The typed API service every frontend shares."""
        return self._service

    @property
    def cache(self) -> DiskCache:
        """The content-addressed cache shared by every layer."""
        return self._service.cache

    @property
    def last_manifest(self) -> RunManifest | None:
        """Manifest of the most recent graph run (None before any run)."""
        return self._service.last_manifest

    @property
    def last_failures(self) -> list[FailureRecord]:
        """Per-cell failure records of the most recent run (keep-going)."""
        return self._service.last_failures

    @property
    def last_failure_envelopes(self) -> list[ErrorEnvelope]:
        """The same failures in the stable API envelope shape — identical
        to what ``repro-serve`` reports through ``/v1/runs/{id}``."""
        return self._service.failure_envelopes()

    def _run(self, jobs: list[JobSpec]) -> dict[str, object]:
        """Pre-API escape hatch: run raw job specs as one graph."""
        return self._service.run_jobs(jobs)

    # -- data ------------------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        """The (cached) dataset instance at the configured length."""
        return self._service.dataset(name)

    def split(self, name: str) -> Split:
        """The (cached) 70/10/20 chronological split."""
        return self._service.split(name)

    # -- compression -------------------------------------------------------------

    def compress_series(self, series: TimeSeries, method: str,
                        error_bound: float) -> CompressionResult:
        """Compress one free-standing series (no caching)."""
        return make_compressor(method).compress(series, error_bound)

    def compression_sweep(self, name: str) -> list[CompressionRecord]:
        """TE/CR/segment records over the full target series (RQ1).

        Adapter for a batch of ``CompressRequest(part="full")`` — one
        request per (method, bound) cell, executed as one task graph.
        Failed cells (keep-going) are absent from the returned list and
        reported via :attr:`last_failures`.
        """
        requests = [CompressRequest(name, method, error_bound, part="full")
                    for method in self.config.compressors
                    for error_bound in self.config.error_bounds]
        return [response.to_record()
                for response in self._service.compress_batch(requests)
                if isinstance(response, CompressResponse)]

    def gorilla_ratio(self, name: str) -> float:
        """Compression ratio of the lossless GORILLA baseline (Figure 2)."""
        request = CompressRequest(name, "GORILLA", 0.0, part="full")
        response, = self._service.compress_batch([request])
        if isinstance(response, ErrorEnvelope):
            raise ApiError(response, status=500)
        return response.compression_ratio

    def transformed_split(self, name: str, method: str, error_bound: float,
                          part: str = "test") -> TimeSeries:
        """Decompressed values of one split part (T(test | C, eps))."""
        request = CompressRequest(name, method, error_bound, part=part)
        return self._service.transform(request).decompressed

    # -- model training --------------------------------------------------------------

    def trained_model(self, model_name: str, dataset_name: str, seed: int,
                      train_on: tuple[str, float] | None = None) -> Forecaster:
        """A trained forecaster, loaded from cache when available.

        ``train_on=(method, error_bound)`` trains on decompressed data
        (the Figure 7 retraining scenario); ``None`` trains on raw data.
        """
        job = self._service.train_job(model_name, dataset_name, seed,
                                      train_on)
        return self._service.run_jobs([job])[job.key()]

    # -- evaluation ---------------------------------------------------------------------

    def _cell_requests(self, model_name: str, dataset_name: str,
                       methods: tuple[str, ...],
                       error_bounds: tuple[float, ...],
                       retrained: bool = False) -> list[ForecastRequest]:
        """Requests in record order: method, then bound, then seed."""
        return [ForecastRequest(model_name, dataset_name, method=method,
                                error_bound=error_bound, seed=seed,
                                retrained=retrained)
                for method in methods
                for error_bound in error_bounds
                for seed in self.config.seeds_for(model_name)]

    def _collect(self, requests: list[ForecastRequest]
                 ) -> list[ScenarioRecord]:
        """Records for every completed cell, in request order.

        With ``keep_going`` enabled, failed or skipped cells degrade to
        error envelopes and are therefore absent from the returned list —
        their per-cell status is in :attr:`last_failures` / the manifest.
        """
        return [response.to_record()
                for response in self._service.forecast_batch(requests)
                if isinstance(response, ForecastResponse)]

    def baseline_records(self, model_name: str, dataset_name: str
                         ) -> list[ScenarioRecord]:
        """RAW-input records (the Table 2 baseline), one per seed."""
        return self._collect([
            ForecastRequest(model_name, dataset_name, seed=seed)
            for seed in self.config.seeds_for(model_name)])

    def scenario_records(self, model_name: str, dataset_name: str, *,
                         methods: tuple[str, ...] | None = None,
                         error_bounds: tuple[float, ...] | None = None
                         ) -> list[ScenarioRecord]:
        """Algorithm 1: transformed-input records across the lossy grid."""
        return self._collect(self._cell_requests(
            model_name, dataset_name,
            methods or self.config.compressors,
            error_bounds or self.config.error_bounds))

    def retrain_records(self, model_name: str, dataset_name: str, *,
                        methods: tuple[str, ...] | None = None,
                        error_bounds: tuple[float, ...] | None = None
                        ) -> list[ScenarioRecord]:
        """Figure 7: train AND infer on decompressed data, score vs raw."""
        return self._collect(self._cell_requests(
            model_name, dataset_name,
            methods or self.config.compressors,
            error_bounds or self.config.error_bounds,
            retrained=True))

    def grid_records(self, *,
                     datasets: tuple[str, ...] | None = None,
                     models: tuple[str, ...] | None = None,
                     methods: tuple[str, ...] | None = None,
                     error_bounds: tuple[float, ...] | None = None,
                     include_baseline: bool = True,
                     retrained: bool = False,
                     task: str = "forecasting") -> list[ScenarioRecord]:
        """Baseline + scenario records for a whole sub-grid in ONE graph.

        ``task`` selects the downstream task scoring each cell —
        ``"forecasting"`` (default) or any other registered task (e.g.
        ``"anomaly"``, whose models default to the registered detectors
        when ``models`` is None).

        Adapter for one :class:`~repro.api.requests.GridRequest`: building
        a single graph lets the executor overlap compression, training,
        and forecasting across every (dataset, model) pair — with
        ``max_workers > 1`` the full grid saturates the pool instead of
        synchronizing at each pair like per-method calls would.

        With ``EvaluationConfig.keep_going`` a failing cell no longer
        aborts the run: every independent cell still completes and is
        returned, while the failed cell's status (kind, key, exception,
        attempts) is reported in :attr:`last_failures` (or, envelope-
        shaped, :attr:`last_failure_envelopes`) and the manifest's
        failure section instead of raising.
        """
        request = GridRequest(datasets=datasets, models=models,
                              methods=methods, error_bounds=error_bounds,
                              include_baseline=include_baseline,
                              retrained=retrained, task=task)
        records, _ = self._service.grid(request)
        return records

    # -- characteristics -------------------------------------------------------------------

    def characteristic_deltas(self, dataset_name: str,
                              methods: tuple[str, ...] | None = None,
                              error_bounds: tuple[float, ...] | None = None
                              ) -> dict[tuple[str, float], dict[str, float]]:
        """Relative differences (%) of all 42 characteristics per grid cell."""
        return self._service.feature_deltas(
            dataset_name,
            methods or self.config.compressors,
            error_bounds or self.config.error_bounds)
