"""Tests for the evaluation configuration."""

from repro.core import EvaluationConfig
from repro.compression.registry import PAPER_ERROR_BOUNDS
from repro.datasets.registry import DATASET_NAMES
from repro.forecasting.registry import DEEP_MODELS, MODEL_NAMES


def test_defaults_cover_the_full_grid():
    config = EvaluationConfig()
    assert config.datasets == DATASET_NAMES
    assert config.models == MODEL_NAMES
    assert config.error_bounds == PAPER_ERROR_BOUNDS
    assert config.compressors == ("PMC", "SWING", "SZ")


def test_seeds_follow_model_family():
    config = EvaluationConfig(deep_seeds=3, simple_seeds=2)
    for model in DEEP_MODELS:
        assert config.seeds_for(model) == (0, 1, 2)
    assert config.seeds_for("Arima") == (0, 1)
    assert config.seeds_for("GBoost") == (0, 1)


def test_paper_preset_restores_dimensions():
    config = EvaluationConfig.paper()
    assert config.dataset_length is None  # paper lengths
    assert config.deep_seeds == 10
    assert config.simple_seeds == 5
    assert config.eval_stride == 1


def test_fast_preset_is_smaller():
    fast = EvaluationConfig.fast()
    assert len(fast.datasets) < len(DATASET_NAMES)
    assert len(fast.models) < len(MODEL_NAMES)
    assert fast.dataset_length < 4_000


def test_with_overrides_replaces_fields_immutably():
    base = EvaluationConfig()
    changed = base.with_overrides(dataset_length=99, horizon=12)
    assert changed.dataset_length == 99
    assert changed.horizon == 12
    assert base.dataset_length == 4_000  # original untouched
    assert changed.models == base.models
