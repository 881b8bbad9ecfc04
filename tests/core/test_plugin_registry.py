"""Tests for the unified plugin registry (``repro.registry``).

Pins the registered capability surface — the derived tuples every layer
(CLI choices, schema enums, config defaults, stream encoders) is built
from — and exercises the decorator API with throwaway plugins.
"""

import pytest

from repro import registry
from repro.registry import (register_compressor, register_model,
                            register_task)


# -- the built-in surface ---------------------------------------------------


def test_paper_compressors_are_pinned():
    # the source paper's grid (Section 3.2): cache digests depend on this
    assert registry.compressor_names(lossy=True, paper=True) == \
        ("PMC", "SWING", "SZ")


def test_grid_compressors_include_the_new_codecs():
    assert set(registry.compressor_names(grid=True)) == \
        {"PMC", "SWING", "SZ", "CAMEO", "LFZIP"}


def test_streaming_compressors_name_their_online_encoders():
    from repro.compression.streaming import STREAMING_ALGORITHMS

    streaming = registry.compressor_names(streaming=True)
    assert set(streaming) == {"PMC", "SWING", "LFZIP"}
    for name in streaming:
        encoder = registry.compressor_info(name).streaming
        assert encoder in STREAMING_ALGORITHMS


def test_lossless_codecs_carry_no_error_bound():
    info = registry.compressor_info("GORILLA")
    assert not info.lossy
    assert info.error_bound == "none"
    assert not info.grid


def test_paper_models_are_pinned():
    assert registry.model_names(task="forecasting", paper=True) == \
        ("Arima", "DLinear", "GBoost", "GRU", "Transformer", "Informer",
         "NBeats")


def test_tasks_and_their_model_axes():
    assert registry.task_names() == ("forecasting", "anomaly")
    assert registry.task_info("anomaly").models() == ("MeanShift", "ZScore")
    assert "Ryabko" in registry.task_info("forecasting").models()


def test_derived_tuples_are_registry_queries():
    from repro import api
    from repro.compression.registry import (GRID_METHODS, LOSSY_METHODS,
                                            STREAMING_METHODS)
    from repro.forecasting.registry import MODEL_NAMES

    assert LOSSY_METHODS == registry.compressor_names(lossy=True, paper=True)
    assert set(GRID_METHODS) == set(registry.compressor_names(grid=True))
    assert STREAMING_METHODS == api.STREAMING_METHODS
    assert set(STREAMING_METHODS) == \
        set(registry.compressor_names(streaming=True))
    assert MODEL_NAMES == registry.model_names(task="forecasting",
                                               paper=True)


def test_make_compressor_instantiates():
    compressor = registry.make_compressor("CAMEO", use_kernel=False)
    assert compressor.name == "CAMEO"


def test_unknown_names_raise_with_choices():
    with pytest.raises(KeyError, match="unknown compression method"):
        registry.compressor_info("ZIP9000")
    with pytest.raises(KeyError, match="unknown model"):
        registry.model_info("Oracle")
    with pytest.raises(KeyError, match="unknown task"):
        registry.task_info("captioning")


# -- the decorator API ------------------------------------------------------


@pytest.fixture()
def scratch_registry(monkeypatch):
    """Run registrations against copies so tests never pollute the
    process-wide tables."""
    monkeypatch.setattr(registry, "_COMPRESSORS",
                        dict(registry._COMPRESSORS))
    monkeypatch.setattr(registry, "_MODELS", dict(registry._MODELS))
    monkeypatch.setattr(registry, "_TASKS", dict(registry._TASKS))


def test_register_compressor_round_trip(scratch_registry):
    @register_compressor("TESTC", lossy=True, grid=True,
                         description="unit-test codec")
    class TestCodec:
        def __init__(self, knob=1):
            self.knob = knob

    assert "TESTC" in registry.compressor_names(grid=True)
    assert registry.make_compressor("TESTC", knob=3).knob == 3
    # the paper tuple must NOT move when a plugin lands
    assert registry.compressor_names(lossy=True, paper=True) == \
        ("PMC", "SWING", "SZ")


def test_register_model_under_a_new_task(scratch_registry):
    def build_noop_job(service, request):  # pragma: no cover - never run
        raise NotImplementedError

    register_task("denoise", job_builder=build_noop_job, tolerance=3)

    @register_model("Wavelet", task="denoise")
    class WaveletDenoiser:
        pass

    assert "denoise" in registry.task_names()
    assert registry.task_info("denoise").options == {"tolerance": 3}
    assert registry.model_names(task="denoise") == ("Wavelet",)
    # forecasting's axis is untouched
    assert "Wavelet" not in registry.model_names(task="forecasting")


def test_conflicting_registration_is_rejected(scratch_registry):
    @register_compressor("TESTC2", lossy=False, error_bound="none")
    class One:
        pass

    with pytest.raises(ValueError, match="already registered"):
        @register_compressor("TESTC2", lossy=False, error_bound="none")
        class Two:
            pass


def test_reregistering_the_same_factory_is_idempotent(scratch_registry):
    @register_compressor("TESTC3", lossy=True)
    class Same:
        pass

    # e.g. importlib.reload handing the same class back
    register_compressor("TESTC3", lossy=True)(Same)
    assert "TESTC3" in registry.compressor_names(lossy=True)
