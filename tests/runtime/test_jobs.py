"""Job-key stability and dependency declarations."""

import ast
import inspect

import numpy as np
import pytest

from repro.api import requests as requests_module
from repro.core.results import RAW as CORE_RAW
from repro.runtime import jobs as jobs_module
from repro.runtime.jobs import (CompressJob, FeatureJob, ForecastJob,
                                RuntimeContext, TrainJob, evaluate_windows,
                                freeze_kwargs)


@pytest.mark.parametrize("module", [jobs_module, requests_module],
                         ids=["runtime.jobs", "api.requests"])
def test_raw_label_is_the_core_results_one(module):
    """The job graph and the request types import ``RAW`` from
    ``repro.core.results``; neither defines a copy that could drift (an
    equal string literal would pass ``is`` too, since CPython interns
    it, so the module's top-level statements are read)."""
    assert module.RAW is CORE_RAW
    tree = ast.parse(inspect.getsource(module))
    imported = [node for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module == "repro.core.results"
                and any(alias.name == "RAW" and alias.asname is None
                        for alias in node.names)]
    assigned = [target for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Name) and target.id == "RAW"]
    assert imported and not assigned


def train_job(**overrides):
    spec = dict(model="Arima", dataset="ETTm1", length=2_000, input_length=48,
                horizon=12, seed=0)
    spec.update(overrides)
    return TrainJob(**spec)


def test_same_spec_same_key():
    assert train_job().key() == train_job().key()


def test_any_field_change_changes_key():
    base = train_job().key()
    changed = [train_job(model="DLinear"), train_job(dataset="Weather"),
               train_job(length=1_000), train_job(input_length=96),
               train_job(horizon=24), train_job(seed=1),
               train_job(model_kwargs=(("epochs", 5),)),
               train_job(train_on=("PMC", 0.1))]
    keys = [job.key() for job in changed]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_key_prefixed_by_kind():
    assert train_job().key().startswith("train-")
    assert CompressJob("ETTm1", 2_000, "PMC", 0.1).key().startswith(
        "compress-")


def test_different_kinds_never_collide():
    compress = CompressJob("ETTm1", 2_000, "PMC", 0.1)
    feature = FeatureJob("ETTm1", 2_000, "PMC", 0.1)
    assert compress.key() != feature.key()


def test_freeze_kwargs_is_order_independent():
    a = freeze_kwargs({"epochs": 10, "kernel": 9})
    b = freeze_kwargs({"kernel": 9, "epochs": 10})
    assert a == b
    assert train_job(model_kwargs=a).key() == train_job(model_kwargs=b).key()


def test_freeze_kwargs_freezes_nested_containers():
    frozen = freeze_kwargs({"orders": [(1, 0, 0), (2, 1, 0)],
                            "options": {"b": 2, "a": 1}})
    assert frozen == (("options", (("a", 1), ("b", 2))),
                      ("orders", ((1, 0, 0), (2, 1, 0))))
    hash(frozen)  # must stay hashable for frozen dataclass fields


def test_raw_forecast_depends_only_on_training():
    job = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0)
    deps = job.dependencies()
    assert [d.kind for d in deps] == ["train"]


def test_transformed_forecast_adds_compress_dependency():
    job = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                      method="PMC", error_bound=0.1)
    assert [d.kind for d in job.dependencies()] == ["train", "compress"]
    compress = job.dependencies()[1]
    assert compress.part == "test"


def test_retrained_forecast_trains_on_decompressed_splits():
    job = ForecastJob("Arima", "ETTm1", 2_000, 48, 12, 12, seed=0,
                      method="PMC", error_bound=0.1, retrained=True)
    train = job.train_job()
    assert train.train_on == ("PMC", 0.1)
    parts = [d.part for d in train.dependencies()]
    assert parts == ["train", "validation"]


def test_feature_job_depends_on_test_compression():
    job = FeatureJob("ETTm1", 2_000, "PMC", 0.1)
    (compress,) = job.dependencies()
    assert compress.part == "test"
    assert compress.method == "PMC"


class _PositionsProbe:
    """Minimal forecaster double recording how predict was called."""

    def __init__(self, uses_positions):
        self.uses_positions = uses_positions
        self.got_positions = None

    def predict(self, windows, positions=None):
        self.got_positions = positions
        # non-constant output so correlation-style metrics stay defined
        return np.arange(2.0 * len(windows)).reshape(len(windows), 2)


def test_evaluate_windows_respects_capability_flag():
    inputs = np.zeros((3, 4))
    targets = np.arange(6.0).reshape(3, 2)
    positions = np.arange(3, dtype=float)

    flagged = _PositionsProbe(uses_positions=True)
    evaluate_windows(flagged, inputs, targets, positions)
    assert np.array_equal(flagged.got_positions, positions)

    unflagged = _PositionsProbe(uses_positions=False)
    evaluate_windows(unflagged, inputs, targets, positions)
    assert unflagged.got_positions is None


def test_evaluate_windows_does_not_mask_internal_type_errors():
    class Broken:
        uses_positions = True

        def predict(self, windows, positions=None):
            raise TypeError("genuine bug inside predict")

    with pytest.raises(TypeError, match="genuine bug"):
        evaluate_windows(Broken(), np.zeros((2, 4)), np.zeros((2, 2)),
                         np.arange(2, dtype=float))


def test_compress_job_runs_against_context():
    ctx = RuntimeContext()
    job = CompressJob("ETTm1", 1_200, "PMC", 0.2)
    result = job.run(ctx, {})
    test_split = ctx.source("ETTm1", 1_200).series("test")
    assert len(result.decompressed) == len(test_split)
    assert result.method == "PMC"


def test_runtime_context_memoizes_datasets():
    ctx = RuntimeContext()
    source = ctx.source("ETTm1", 1_200)
    assert ctx.source("ETTm1", 1_200).dataset is source.dataset
    assert ctx.source("ETTm1", 1_200).split is source.split
    assert ctx.source("ETTm1", 1_300).dataset is not source.dataset


def test_runtime_context_memoizes_characteristics_by_content(monkeypatch):
    """Two cells whose codecs decode to the same series (and the raw
    split, when a codec is exact) run the catalogue once."""
    calls = []
    real = jobs_module.compute_all

    def counted(values, period):
        calls.append(period)
        return real(values, period)

    monkeypatch.setattr(jobs_module, "compute_all", counted)
    ctx = RuntimeContext()
    raw = ctx.source("ETTm1", 1_200).series("test").values
    first = ctx.raw_test_features("ETTm1", 1_200)
    assert ctx.features(raw.copy(), 96) is first
    assert calls == [96]
    assert first == real(raw, 96)
    # another period, or one changed value, is another series
    ctx.features(raw, 24)
    changed = raw.copy()
    changed[7] += 1e-12
    ctx.features(changed, 96)
    assert calls == [96, 24, 96]


def test_runtime_context_characteristic_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(jobs_module, "compute_all",
                        lambda values, period: {"x": float(values[0])})
    monkeypatch.setattr(RuntimeContext, "FEATURE_MEMO_SIZE", 2)
    ctx = RuntimeContext()
    seen = [ctx.features(np.full(4, float(k)), 1) for k in range(3)]
    assert ctx.features(np.full(4, 2.0), 1) is seen[2]
    assert ctx.features(np.full(4, 0.0), 1) is not seen[0]


def test_raw_split_characteristics_outlive_the_bounded_memo(monkeypatch):
    """Transformed series evicting every memo entry never makes the raw
    split run the catalogue a second time."""
    calls = []

    def counted(values, period):
        calls.append(float(values[0]))
        return {"x": float(values[0])}

    monkeypatch.setattr(jobs_module, "compute_all", counted)
    monkeypatch.setattr(RuntimeContext, "FEATURE_MEMO_SIZE", 1)
    ctx = RuntimeContext()
    first = ctx.raw_test_features("ETTm1", 1_200)
    for k in range(3):
        ctx.features(np.full(4, 1e6 + k), 96)
    assert ctx.raw_test_features("ETTm1", 1_200) is first
    assert len(calls) == 4
