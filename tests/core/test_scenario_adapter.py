"""In-process failure reporting of :class:`~repro.api.service.ApiService`.

Under ``keep_going`` a failed cell is absent from a batch's answers; the
service reports it twice, as runtime ``FailureRecord``\\ s
(``last_failures``) and as the stable envelopes ``repro-serve`` sends
(``failure_envelopes()``).  The two views must describe the same failures.
"""

from repro.api import ApiService, CompressRequest
from repro.core.config import EvaluationConfig


def _config(**overrides):
    base = dict(datasets=("ETTm1",), models=("GBoost",),
                compressors=("PMC", "SWING"), error_bounds=(0.1, 0.4),
                dataset_length=1_200, input_length=48, horizon=12,
                eval_stride=12, deep_seeds=1, simple_seeds=1, cache_dir=None)
    base.update(overrides)
    return EvaluationConfig(**base)


def test_failure_envelopes_mirror_last_failures(monkeypatch):
    from repro.api.errors import envelope_from_failure

    monkeypatch.setenv("REPRO_INJECT_FAILURE", "compress:SWING")
    service = ApiService(_config(keep_going=True))
    config = service.config
    service.compress_batch([CompressRequest("ETTm1", method, bound)
                            for method in config.compressors
                            for bound in config.error_bounds])
    assert service.last_failures
    assert (service.failure_envelopes()
            == [envelope_from_failure(f) for f in service.last_failures])
