"""Typed response objects mirroring :mod:`repro.api.requests`.

Responses are plain frozen dataclasses whose fields are JSON-safe scalars
and containers, so the same object serves in-process callers and the
wire (where the codec turns them into tagged JSON payloads).
:meth:`ForecastResponse.from_record` / :meth:`~ForecastResponse.to_record`
are the only bridge between the API layer and
:class:`~repro.core.results.ScenarioRecord`, the value every forecast and
anomaly job caches and the record type of :meth:`ApiService.grid
<repro.api.service.ApiService.grid>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.errors import ErrorEnvelope
from repro.core.results import ScenarioRecord

#: terminal + transient states of an async grid run; "interrupted" marks
#: a run that was pending/running when its daemon died — terminal, since
#: the thread that would have finished it no longer exists
RUN_STATES: tuple[str, ...] = ("pending", "running", "done", "failed",
                               "interrupted")


@dataclass(frozen=True)
class CompressResponse:
    """Outcome of one :class:`~repro.api.requests.CompressRequest`."""

    dataset: str
    method: str
    error_bound: float
    part: str
    compressed_size: int
    compression_ratio: float
    num_segments: int
    #: transformation error per pointwise metric (NaN for degenerate cells)
    te: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ForecastResponse:
    """Outcome of one :class:`~repro.api.requests.ForecastRequest`."""

    dataset: str
    model: str
    method: str
    error_bound: float
    seed: int
    retrained: bool
    #: metric name -> score over the evaluation windows
    metrics: dict[str, float] = field(default_factory=dict)
    #: downstream task that scored the cell (absent on pre-task payloads)
    task: str = "forecasting"

    @classmethod
    def from_record(cls, record: ScenarioRecord) -> "ForecastResponse":
        return cls(dataset=record.dataset, model=record.model,
                   method=record.method, error_bound=record.error_bound,
                   seed=record.seed, retrained=record.retrained,
                   metrics=dict(record.metrics), task=record.task)

    def to_record(self) -> ScenarioRecord:
        """The cell as the record type :meth:`ApiService.grid` returns."""
        return ScenarioRecord(self.dataset, self.model, self.method,
                              self.error_bound, self.seed,
                              dict(self.metrics), retrained=self.retrained,
                              task=self.task)


@dataclass(frozen=True)
class GridSubmitResponse:
    """Acknowledgement of an async grid submission (``POST /v1/grid``)."""

    run_id: str
    #: cells the grid will evaluate (baselines included)
    cells: int
    status: str = "pending"


@dataclass(frozen=True)
class RunStatusResponse:
    """State of one async grid run (``GET /v1/runs/{id}``)."""

    run_id: str
    #: one of :data:`RUN_STATES`
    status: str
    #: ``RunManifest.to_dict()`` of the run (None until it starts)
    manifest: dict | None = None
    #: per-cell failures, in the stable envelope shape
    failures: tuple[ErrorEnvelope, ...] = ()
    #: completed cells (empty until the run is done)
    records: tuple[ForecastResponse, ...] = ()


@dataclass(frozen=True)
class TraceResponse:
    """Rendered summary of one run directory (``repro-eval trace``)."""

    run_dir: str
    lines: tuple[str, ...] = ()


#: segment kinds a stream session may emit
STREAM_SEGMENT_KINDS: tuple[str, ...] = ("constant", "linear", "lfzip")


@dataclass(frozen=True)
class StreamSegment:
    """One closed error-bounded segment on the wire.

    ``params`` is ``(value,)`` for a constant (PMC) segment,
    ``(slope, intercept)`` for a linear (Swing) one, and the flattened
    ``(step, base, weights..., outlier count, outliers..., symbols...)``
    block state for an ``lfzip`` one — the exact float64 state of the
    server-side encoder, so :meth:`to_segment` rebuilds the in-memory
    segment bit-for-bit (the equivalence suite's byte-identity claim
    crosses the wire through this type).
    """

    kind: str
    length: int
    params: tuple[float, ...]

    @classmethod
    def from_segment(cls, segment: Any) -> "StreamSegment":
        from repro.compression.streaming import segment_to_wire

        kind, length, params = segment_to_wire(segment)
        return cls(kind=kind, length=length, params=params)

    def to_segment(self) -> Any:
        """The in-memory ConstantSegment/LinearSegment this encodes."""
        from repro.compression.streaming import segment_from_wire

        return segment_from_wire(self.kind, self.length, self.params)


@dataclass(frozen=True)
class StreamOpenResponse:
    """Acknowledgement of ``POST /v1/stream`` — the session's identity."""

    session_id: str
    #: the effective session configuration, echoed back
    method: str
    error_bound: float
    max_segment_length: int
    forecaster: str
    horizon: int
    forecast_every: int
    #: idle seconds before the server may expire the session
    ttl_s: float


@dataclass(frozen=True)
class StreamPushResponse:
    """Outcome of one push (or close) on a stream session."""

    session_id: str
    #: ticks accepted by THIS request
    pushed: int
    #: ticks accepted over the session's lifetime
    ticks: int
    #: segments closed by this request, in stream order
    segments: tuple[StreamSegment, ...] = ()
    #: segments closed over the session's lifetime
    segments_total: int = 0
    #: the rolling forecast, when this request refreshed it
    forecast: tuple[float, ...] = ()
    #: segments_total at the time of the last refresh (None = never)
    forecast_at: int | None = None
    #: True once the session is closed (final flush included)
    closed: bool = False


@dataclass(frozen=True)
class StreamStatusResponse:
    """State of one stream session (``GET /v1/stream/{id}``)."""

    session_id: str
    ticks: int
    segments_total: int
    #: whether the session is resident in memory (False = snapshotted)
    resident: bool
    #: seconds since the session was last touched
    idle_s: float
    method: str
    forecaster: str
    horizon: int


@dataclass(frozen=True)
class HealthResponse:
    """Liveness + identity of a ``repro-serve`` daemon."""

    status: str
    version: int
    #: seconds since the server started
    uptime_s: float = 0.0
    #: grid runs in the daemon's run store (any state, including runs
    #: of earlier daemons sharing a ``--store``)
    runs: int = 0
    #: grid runs still pending/running — the admission-control population
    inflight_runs: int = 0
