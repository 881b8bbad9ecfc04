"""The Evaluation façade is an adapter: legacy surface, typed API engine.

Satellite guarantees pinned here:

- legacy methods return results identical to computing through the
  service directly (the adapter adds nothing and loses nothing);
- grid-axis arguments are strictly keyword-only — positional use is a
  plain :class:`TypeError` now that the deprecation shim is gone (the
  README migration table documents the break);
- the façade exposes the API objects (``.api``, ``last_failure_envelopes``)
  without breaking its pre-API aliases.
"""

import pytest

from repro.api import ApiService, CompressRequest, GridRequest
from repro.core.config import EvaluationConfig
from repro.core.results import CompressionRecord, ScenarioRecord
from repro.core.scenario import Evaluation


def _config(**overrides):
    base = dict(datasets=("ETTm1",), models=("GBoost",),
                compressors=("PMC", "SWING"), error_bounds=(0.1, 0.4),
                dataset_length=1_200, input_length=48, horizon=12,
                eval_stride=12, deep_seeds=1, simple_seeds=1, cache_dir=None)
    base.update(overrides)
    return EvaluationConfig(**base)


def test_compression_sweep_equals_service_path():
    config = _config()
    evaluation = Evaluation(config)
    records = evaluation.compression_sweep("ETTm1")
    assert records and all(isinstance(r, CompressionRecord) for r in records)

    service = ApiService(config)
    expected = [response.to_record() for response in service.compress_batch(
        [CompressRequest("ETTm1", method, bound, part="full")
         for method in config.compressors
         for bound in config.error_bounds])]
    assert records == expected


def test_grid_records_equals_service_grid():
    config = _config()
    records = Evaluation(config).grid_records()
    expected, _ = ApiService(config).grid(GridRequest())
    assert records == expected
    assert all(isinstance(r, ScenarioRecord) for r in records)


def test_scenario_records_grid_axes_are_keyword_only():
    evaluation = Evaluation(_config())
    with pytest.raises(TypeError, match="positional"):
        evaluation.scenario_records("GBoost", "ETTm1", ("PMC",), (0.1,))
    # the keyword spelling (the migration target) still works
    records = evaluation.scenario_records(
        "GBoost", "ETTm1", methods=("PMC",), error_bounds=(0.1,))
    assert records and all(isinstance(r, ScenarioRecord) for r in records)


def test_grid_records_rejects_any_positional_argument():
    evaluation = Evaluation(_config())
    with pytest.raises(TypeError, match="positional"):
        evaluation.grid_records(("ETTm1",), ("GBoost",), ("PMC",), (0.1,))
    with pytest.raises(TypeError, match="positional"):
        evaluation.grid_records(("ETTm1",))


def test_retrain_records_grid_axes_are_keyword_only():
    evaluation = Evaluation(_config())
    with pytest.raises(TypeError, match="positional"):
        evaluation.retrain_records("GBoost", "ETTm1", ("PMC",))


def test_facade_exposes_api_and_legacy_aliases():
    evaluation = Evaluation(_config())
    assert isinstance(evaluation.api, ApiService)
    assert evaluation.cache is evaluation.api.cache
    assert evaluation.last_manifest is None
    assert evaluation.last_failures == []
    assert evaluation.last_failure_envelopes == []


def test_failure_envelopes_mirror_last_failures(monkeypatch):
    from repro.api.errors import envelope_from_failure

    monkeypatch.setenv("REPRO_INJECT_FAILURE", "compress:SWING")
    evaluation = Evaluation(_config(keep_going=True))
    evaluation.compression_sweep("ETTm1")
    assert evaluation.last_failures
    assert (evaluation.last_failure_envelopes
            == [envelope_from_failure(f) for f in evaluation.last_failures])
