"""Streaming ↔ batch equivalence, pinned through a real ``/v1/stream``.

The serving guarantee under test: however a series is sliced into push
chunks — tick at a time, arbitrary partitions, or one whole-series push —
the segments a live session emits are **byte-identical** (via
:func:`segments_payload`) to a local uninterrupted online encoder over
the same values, and reconstruct to the same series as the batch
compressor within the established tolerances.  Chunking is transport,
not semantics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import StreamOpenRequest
from repro.compression import LFZip, PMC, Swing
from repro.compression.streaming import (OnlineLFZip, OnlinePMC, OnlineSwing,
                                         reconstruct, segments_payload)
from repro.core.config import EvaluationConfig
from repro.datasets import TimeSeries
from repro.server.app import ReproServer
from repro.server.client import ReproClient

_ONLINE = {"PMC": OnlinePMC, "SWING": OnlineSwing, "LFZIP": OnlineLFZip}
_BATCH = {"PMC": PMC, "SWING": Swing, "LFZIP": LFZip}
_ATOL = {"PMC": 1e-6, "SWING": 1e-5, "LFZIP": 0.0}


def _config():
    return EvaluationConfig(datasets=("ETTm1",), models=("GBoost",),
                            compressors=("PMC", "SWING"),
                            error_bounds=(0.1,), dataset_length=1_200,
                            input_length=48, horizon=12, eval_stride=12,
                            deep_seeds=1, simple_seeds=1, cache_dir=None,
                            keep_going=True)


@pytest.fixture(scope="module")
def server():
    # module-scoped: one daemon serves every example of the property
    # suite (hypothesis forbids per-example function-scoped fixtures)
    with ReproServer(_config(), port=0) as instance:
        yield instance


@pytest.fixture(scope="module")
def client(server):
    return ReproClient(port=server.port, timeout=60.0)


def _stream_segments(client, method, error_bound, chunks, via_ingest=False):
    """Push ``chunks`` through a fresh session; return its segments."""
    opened = client.stream_open(StreamOpenRequest(
        method=method, error_bound=error_bound, forecast_every=0))
    if via_ingest:
        events = client.stream_ingest(opened.session_id, chunks, close=True)
        wire = [s for event in events for s in event.segments]
    else:
        wire = []
        for chunk in chunks:
            wire += client.stream_push(opened.session_id, chunk).segments
        wire += client.stream_close(opened.session_id).segments
    return [s.to_segment() for s in wire]


def _local_segments(method, error_bound, values):
    encoder = _ONLINE[method](error_bound)
    return encoder.extend(values) + encoder.flush()


def _assert_equivalent(method, error_bound, values, streamed):
    expected = _local_segments(method, error_bound, values)
    assert segments_payload(streamed) == segments_payload(expected)
    assert sum(s.length for s in streamed) == len(values)
    batch = _BATCH[method]().compress(
        TimeSeries(np.asarray(values, dtype=float), interval=60), error_bound)
    if method == "LFZIP":
        # block segments, not value runs: counts differ from the batch
        # num_segments statistic, but the reconstruction is bitwise equal
        assert np.array_equal(reconstruct(streamed),
                              batch.decompressed.values)
    else:
        assert len(streamed) == batch.num_segments
        assert np.allclose(reconstruct(streamed), batch.decompressed.values,
                           atol=_ATOL[method])


@st.composite
def series_and_partition(draw):
    values = draw(st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1, max_size=120))
    n = len(values)
    style = draw(st.sampled_from(["random", "ticks", "whole"]))
    if style == "ticks":
        cuts = list(range(1, n))
    elif style == "whole":
        cuts = []
    else:
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                                   max_size=8))) if n > 1 else []
    chunks, previous = [], 0
    for cut in cuts + [n]:
        chunks.append(values[previous:cut])
        previous = cut
    return values, chunks


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=series_and_partition(),
       method=st.sampled_from(["PMC", "SWING", "LFZIP"]),
       error_bound=st.sampled_from([0.01, 0.1, 0.5]))
def test_property_chunking_is_transport_not_semantics(client, data, method,
                                                      error_bound):
    values, chunks = data
    streamed = _stream_segments(client, method, error_bound, chunks)
    _assert_equivalent(method, error_bound, values, streamed)


@pytest.mark.parametrize("method", ["PMC", "SWING", "LFZIP"])
def test_tick_at_a_time_matches_batch(client, method):
    rng = np.random.default_rng(5)
    values = (20 + rng.normal(0, 1, 300).cumsum() * 0.1).tolist()
    streamed = _stream_segments(client, method, 0.1,
                                [[v] for v in values])
    _assert_equivalent(method, 0.1, values, streamed)


@pytest.mark.parametrize("method", ["PMC", "SWING", "LFZIP"])
def test_whole_series_single_push_matches_batch(client, method):
    rng = np.random.default_rng(6)
    values = (20 + rng.normal(0, 1, 500).cumsum() * 0.1).tolist()
    streamed = _stream_segments(client, method, 0.05, [values])
    _assert_equivalent(method, 0.05, values, streamed)


@pytest.mark.parametrize("method", ["PMC", "SWING", "LFZIP"])
def test_chunked_ingest_equals_push_path(client, method):
    # the NDJSON ingest route is the same session machinery over a
    # different transport: identical bytes out
    rng = np.random.default_rng(7)
    values = (20 + rng.normal(0, 1, 256).cumsum() * 0.1).tolist()
    chunks = [values[i:i + 37] for i in range(0, len(values), 37)]
    ingested = _stream_segments(client, method, 0.1, chunks,
                                via_ingest=True)
    pushed = _stream_segments(client, method, 0.1, chunks)
    assert segments_payload(ingested) == segments_payload(pushed)
    _assert_equivalent(method, 0.1, values, ingested)


def test_close_with_final_ticks_equals_trailing_push(client):
    rng = np.random.default_rng(8)
    values = (20 + rng.normal(0, 1, 100).cumsum() * 0.1).tolist()
    opened = client.stream_open(StreamOpenRequest(method="PMC",
                                                  error_bound=0.1))
    wire = list(client.stream_push(opened.session_id, values[:80]).segments)
    wire += client.stream_close(opened.session_id, values[80:]).segments
    streamed = [s.to_segment() for s in wire]
    _assert_equivalent("PMC", 0.1, values, streamed)


def test_lfzip_session_survives_restart_byte_identically(tmp_path):
    """The acceptance pin for online LFZip: NLMS weights, carry, and the
    partial block cross the snapshot/restore boundary of a live daemon —
    a restart mid-stream leaves the emitted segments byte-identical."""
    rng = np.random.default_rng(29)
    values = (20 + rng.normal(0, 1, 420).cumsum() * 0.1).tolist()
    config = EvaluationConfig(datasets=("ETTm1",), models=("GBoost",),
                              compressors=("PMC",), error_bounds=(0.1,),
                              dataset_length=1_200, input_length=48,
                              horizon=12, eval_stride=12, deep_seeds=1,
                              simple_seeds=1,
                              cache_dir=str(tmp_path / "cache"))
    with ReproServer(config, port=0) as instance:
        live = ReproClient(port=instance.port)
        sid = live.stream_open(StreamOpenRequest(
            method="LFZIP", error_bound=0.1,
            forecast_every=0)).session_id
        # stop mid-block (300 is not a multiple of the 128 block size)
        collected = list(live.stream_push(sid, values[:300]).segments)
    with ReproServer(config, port=0) as instance:
        live = ReproClient(port=instance.port)
        assert live.stream_status(sid).resident is False
        collected += live.stream_push(sid, values[300:]).segments
        collected += live.stream_close(sid).segments
    encoder = OnlineLFZip(0.1)
    expected = encoder.extend(values) + encoder.flush()
    streamed = [s.to_segment() for s in collected]
    assert segments_payload(streamed) == segments_payload(expected)
    assert np.array_equal(
        reconstruct(streamed),
        LFZip().compress(TimeSeries(np.asarray(values), interval=60),
                         0.1).decompressed.values)
