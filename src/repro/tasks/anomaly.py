"""The anomaly-detection downstream task (a second grid ``task`` axis).

The paper's closing discussion (and Hollmig et al., 2017, which it
cites) asks how error-bounded lossy compression perturbs analytics
beyond forecasting.  :class:`AnomalyJob` answers one cell of that
question: run a registered detector on the raw test split (ground
truth), run the same detector on the decompressed test split, and score
the detections against the truth with tolerance-matched F1 — plus the
mean relative drift of the 42 series characteristics, so detection
degradation can be read against feature degradation in the same record.

The job rides the existing content-hashed task graph: its dependencies
are the very same ``CompressJob(part="test")`` the forecasting cells use
and the ``FeatureJob`` of that cell, so a grid compresses each (dataset,
method, bound) cell exactly once and computes its characteristics once,
however many detectors score it.  The ground truth is memoized on the
run context's :class:`~repro.runtime.jobs.Source` entry too: each
detector runs on a dataset's raw test split once, not once per cell.

Like :mod:`repro.runtime.jobs` this module is imported inside
queue-backend worker processes when an ``AnomalyJob`` is unpickled, so
the class must live at module scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.results import RAW, ScenarioRecord
# unused, but benchmarks/e2e/tracing.py wraps this module's compute_all
from repro.features.registry import compute_all  # noqa: F401
from repro.obs import trace as obs_trace
from repro.runtime.jobs import (CompressJob, FeatureJob, JobSpec,
                                RuntimeContext)
from repro.tasks.detectors import f1_score, match_detections
from repro.tasks.detectors import make as make_detector

#: detections within this many ticks of a true event count as hits
DEFAULT_TOLERANCE = 24


@dataclass(frozen=True)
class AnomalyJob(JobSpec):
    """Score one detector on one (dataset, method, bound) grid cell."""

    kind: ClassVar[str] = "anomaly"

    #: registered anomaly-detector name (the task's model axis)
    model: str
    dataset: str
    length: int | None
    seed: int = 0
    method: str = RAW
    error_bound: float = 0.0
    tolerance: int = DEFAULT_TOLERANCE
    model_kwargs: tuple[tuple[str, Any], ...] = ()

    def transform_job(self) -> CompressJob | None:
        if self.method == RAW:
            return None
        return CompressJob(self.dataset, self.length, self.method,
                           self.error_bound, part="test")

    def feature_job(self) -> FeatureJob:
        return FeatureJob(self.dataset, self.length, self.method,
                          self.error_bound)

    def dependencies(self) -> tuple[JobSpec, ...]:
        transform = self.transform_job()
        return () if transform is None else (transform, self.feature_job())

    def run(self, ctx: RuntimeContext, deps: dict[str, Any]
            ) -> ScenarioRecord:
        detector = make_detector(self.model, **dict(self.model_kwargs))
        transform = self.transform_job()
        if transform is None:
            drift = 0.0
        else:
            # mean |relative characteristic difference| vs the raw split
            deltas = deps[self.feature_job().key()]
            finite = [abs(v) for v in deltas.values() if np.isfinite(v)]
            drift = float(np.mean(finite)) if finite else 0.0
        with obs_trace.span("anomaly.detect", model=self.model,
                            dataset=self.dataset, method=self.method,
                            error_bound=self.error_bound):
            # the ground truth: every cell scoring this detector on one
            # source shares its detections on the raw test split
            source = ctx.source(self.dataset, self.length)
            truth = source.derived(
                ("detections", self.model, self.model_kwargs),
                lambda: tuple(detector.detect(source.series("test").values)))
            if transform is None:
                detected = truth
            else:
                detected = detector.detect(
                    deps[transform.key()].decompressed.values)
        hits, false_alarms, misses = match_detections(truth, detected,
                                                      tolerance=self.tolerance)
        metrics = {
            "F1": f1_score(hits, false_alarms, misses),
            "precision": (hits / (hits + false_alarms)
                          if hits + false_alarms else 0.0),
            "recall": hits / (hits + misses) if hits + misses else 0.0,
            "true_events": float(len(truth)),
            "detected_events": float(len(detected)),
            "feature_drift": drift,
        }
        return ScenarioRecord(self.dataset, self.model, self.method,
                              self.error_bound, self.seed, metrics,
                              retrained=False, task="anomaly")
