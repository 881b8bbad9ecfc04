"""Evaluation configuration.

The paper's full grid — 7 models x 3 compressors x 13 error bounds x 6
datasets, 10 random seeds for deep models and 5 for the rest — is days of
CPU time for this pure-Python reproduction, so the default configuration
scales the grid down (shorter synthetic series, fewer seeds) while keeping
every axis present.  ``EvaluationConfig.paper()`` restores the paper's
dimensions for anyone with the patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compression.registry import LOSSY_METHODS, PAPER_ERROR_BOUNDS
from repro.datasets.registry import DATASET_NAMES
from repro.forecasting.registry import DEEP_MODELS, MODEL_NAMES


@dataclass(frozen=True)
class EvaluationConfig:
    """Every knob of the experimental setup of Section 3."""

    datasets: tuple[str, ...] = DATASET_NAMES
    models: tuple[str, ...] = MODEL_NAMES
    compressors: tuple[str, ...] = LOSSY_METHODS
    error_bounds: tuple[float, ...] = PAPER_ERROR_BOUNDS
    #: series length used when instantiating datasets (None = paper length)
    dataset_length: int | None = 4_000
    input_length: int = 96
    horizon: int = 24
    #: stride between evaluation windows on the test split
    eval_stride: int = 24
    #: random-seed counts (paper: 10 deep / 5 simple)
    deep_seeds: int = 2
    simple_seeds: int = 1
    #: directory for trained-model/compression caches (None = no cache)
    cache_dir: str | None = ".cache"
    #: worker count for the task-graph scheduler; with the default backend,
    #: 1 = the inline serial backend (attempts run one at a time on the
    #: caller's thread) and >1 = a process pool of this size
    max_workers: int = 1
    #: execution backend: "auto" (serial/pool by ``max_workers``),
    #: "serial", "pool", or "queue" (durable SQLite job queue with
    #: independent worker processes; requires a ``cache_dir``)
    backend: str = "auto"
    #: queue database path for the queue backend (None = ``queue.sqlite``
    #: inside the cache directory)
    queue_path: str | None = None
    #: queue-backend lease duration in seconds; a worker that stops
    #: heartbeating for this long forfeits its job to reclaim
    queue_lease_s: float = 10.0
    #: durable run-store path for ``repro-serve`` (None = in-memory store:
    #: runs do not survive a daemon restart)
    store_path: str | None = None
    #: per-job attempt timeout in seconds (None = unlimited); enforced via
    #: SIGALRM on main threads and a watcher thread elsewhere
    job_timeout: float | None = None
    #: extra attempts per failing job before it counts as failed
    job_retries: int = 0
    #: True isolates a failing job to its dependent subtree (recorded as a
    #: ``FailureRecord`` in the run manifest) instead of raising ``JobError``
    keep_going: bool = False
    #: directory receiving ``trace.jsonl`` (merged spans + metric flushes
    #: from every worker) and ``manifest.json`` after each run; None keeps
    #: observability disabled (its no-op fast path)
    trace_dir: str | None = None
    #: extra keyword arguments per model name
    model_kwargs: dict = field(default_factory=dict)

    def seeds_for(self, model: str) -> tuple[int, ...]:
        """The random seeds a model is averaged over."""
        count = self.deep_seeds if model in DEEP_MODELS else self.simple_seeds
        return tuple(range(count))

    @classmethod
    def fast(cls) -> "EvaluationConfig":
        """A minutes-scale configuration for tests and demos."""
        return cls(
            datasets=("ETTm1", "Weather"),
            models=("Arima", "DLinear", "NBeats"),
            error_bounds=(0.01, 0.05, 0.1, 0.2, 0.4, 0.8),
            dataset_length=2_000,
            deep_seeds=1,
        )

    @classmethod
    def paper(cls) -> "EvaluationConfig":
        """The paper's full grid (very slow in pure Python)."""
        return cls(dataset_length=None, deep_seeds=10, simple_seeds=5,
                   eval_stride=1)

    def with_overrides(self, **kwargs) -> "EvaluationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
