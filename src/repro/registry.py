"""Unified plugin registry for compressors, models, and downstream tasks.

Every evaluation axis is read from here: the compressor map in
``repro.compression.registry``, the model map in
``repro.forecasting.registry``, the streaming-method tuple in
``repro.api.requests``, the CLI ``choices=...`` lists, and the schema
enums.  Hand-edited literals in each of those places would drift apart
the moment a codec was added to one and not the others, so instead there
is one registry that implementations join by decorating themselves::

    @register_compressor("PMC", lossy=True, paper=True, grid=True,
                         streaming="OnlinePMC")
    class PMC(Compressor): ...

    @register_model("Arima", uses_positions=True, paper=True)
    class ArimaForecaster(Forecaster): ...

    @register_task("anomaly", job_builder=build_anomaly_job)
    class _AnomalyTask: ...

Capability metadata rides on the registration (``streaming`` names the
online encoder class for ``/v1/stream``; ``paper`` marks the axes of the
source paper's grid so its defaults and cache digests never move when a
new plugin lands; ``grid`` opts a compressor into ``repro-eval grid``).
Derived tuples — ``LOSSY_METHODS``, ``GRID_METHODS``, ``MODEL_NAMES``,
``STREAMING_METHODS``, schema enums, CLI choices — are all queries over
this registry, in registration order, so they cannot drift apart.

The module itself is dependency-free and import-cheap.  Registration
happens as a side effect of importing the implementing modules; query
functions bootstrap by importing the three built-in plugin packages on
first use, so callers never have to care who registers what.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class CompressorInfo:
    """Capability card for one registered compression method."""

    name: str
    factory: Callable[..., Any]
    #: error-bounded (lossy) vs. exact (lossless) reconstruction
    lossy: bool
    #: how ``error_bound`` is interpreted: "relative" pointwise bounds
    #: (the paper's convention) or "none" for lossless codecs
    error_bound: str = "relative"
    #: name of the online encoder class in
    #: ``repro.compression.streaming.STREAMING_ALGORITHMS`` when the
    #: method can encode a live ``/v1/stream`` session, else ``None``
    streaming: Optional[str] = None
    #: one of the source paper's grid methods (Section 3.2): the
    #: defaults of ``EvaluationConfig`` and the cached digests of
    #: existing runs are pinned to exactly these
    paper: bool = False
    #: selectable as a ``repro-eval grid`` / ``GridRequest`` method
    grid: bool = False
    description: str = ""


@dataclass(frozen=True)
class ModelInfo:
    """Capability card for one registered downstream model/detector."""

    name: str
    factory: Callable[..., Any]
    #: the downstream task whose model axis this name belongs to
    task: str = "forecasting"
    #: deep models run with 10 random seeds in the paper, the rest 5
    deep: bool = False
    #: fit/predict consume absolute window positions (seasonality)
    uses_positions: bool = False
    #: one of the source paper's seven Section 3.4 models
    paper: bool = False
    description: str = ""


@dataclass(frozen=True)
class TaskInfo:
    """One downstream evaluation task (a grid's ``task`` axis value)."""

    name: str
    #: ``job_builder(service, request) -> JobSpec`` maps one validated
    #: ForecastRequest-shaped grid cell onto a runtime job
    job_builder: Callable[..., Any]
    description: str = ""
    #: extra per-task metadata (e.g. detection tolerance defaults)
    options: dict = field(default_factory=dict)

    def models(self) -> tuple[str, ...]:
        """The model-axis names registered for this task."""
        return model_names(task=self.name)


_COMPRESSORS: dict[str, CompressorInfo] = {}
_MODELS: dict[str, ModelInfo] = {}
_TASKS: dict[str, TaskInfo] = {}

_bootstrapped = False


def _ensure() -> None:
    """Import the built-in plugin packages once so they self-register.

    The flag is set *before* the imports: the packages call back into
    the query functions while their own imports are still executing
    (e.g. ``repro.compression.registry`` derives its tuples at module
    level), and by that point their registrations have already run.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    _bootstrapped = True
    import repro.compression.registry  # noqa: F401
    import repro.forecasting.registry  # noqa: F401
    import repro.tasks  # noqa: F401


def _register(table: dict, info, kind: str):
    existing = table.get(info.name)
    if existing is not None and existing.factory is not info.factory:
        raise ValueError(
            f"{kind} {info.name!r} is already registered to "
            f"{existing.factory!r}")
    table[info.name] = info
    return info


def register_compressor(name: str, *, lossy: bool,
                        error_bound: str = "relative",
                        streaming: Optional[str] = None, paper: bool = False,
                        grid: bool = False, description: str = ""):
    """Class decorator adding a compression method to the registry."""
    def decorate(factory):
        _register(_COMPRESSORS, CompressorInfo(
            name=name, factory=factory, lossy=lossy, error_bound=error_bound,
            streaming=streaming, paper=paper, grid=grid,
            description=description), "compressor")
        return factory
    return decorate


def register_model(name: str, *, task: str = "forecasting",
                   deep: bool = False, uses_positions: bool = False,
                   paper: bool = False, description: str = ""):
    """Class decorator adding a model/detector to the registry."""
    def decorate(factory):
        _register(_MODELS, ModelInfo(
            name=name, factory=factory, task=task, deep=deep,
            uses_positions=uses_positions, paper=paper,
            description=description), "model")
        return factory
    return decorate


def register_task(name: str, *, job_builder, description: str = "",
                  **options):
    """Register a downstream task; returns the TaskInfo."""
    return _register(_TASKS, TaskInfo(
        name=name, job_builder=job_builder, description=description,
        options=dict(options)), "task")


def _match(value, want) -> bool:
    return want is None or value == want


def compressor_names(*, lossy=None, paper=None, grid=None,
                     streaming=None) -> tuple[str, ...]:
    """Registered method names, in registration order, filtered.

    ``streaming=True`` keeps methods with an online encoder;
    the other filters match the capability flags exactly.
    """
    _ensure()
    names = []
    for info in _COMPRESSORS.values():
        if not _match(info.lossy, lossy) or not _match(info.paper, paper):
            continue
        if not _match(info.grid, grid):
            continue
        if streaming is not None and (info.streaming is not None) != streaming:
            continue
        names.append(info.name)
    return tuple(names)


def compressor_info(name: str) -> CompressorInfo:
    _ensure()
    try:
        return _COMPRESSORS[name]
    except KeyError:
        raise KeyError(
            f"unknown compression method {name!r}; choose one of "
            f"{sorted(_COMPRESSORS)}") from None


def make_compressor(name: str, **kwargs):
    """Instantiate a registered compressor by name."""
    return compressor_info(name).factory(**kwargs)


def model_names(*, task=None, deep=None, paper=None) -> tuple[str, ...]:
    """Registered model names, in registration order, filtered."""
    _ensure()
    return tuple(info.name for info in _MODELS.values()
                 if _match(info.task, task) and _match(info.deep, deep)
                 and _match(info.paper, paper))


def model_info(name: str) -> ModelInfo:
    _ensure()
    try:
        return _MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose one of "
            f"{sorted(_MODELS)}") from None


def task_names() -> tuple[str, ...]:
    """Registered downstream task names, in registration order."""
    _ensure()
    return tuple(_TASKS)


def task_info(name: str) -> TaskInfo:
    _ensure()
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown task {name!r}; choose one of {sorted(_TASKS)}") from None
