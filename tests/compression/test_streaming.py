"""Tests for the online (streaming) PMC and Swing encoders."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import PMC, Swing
from repro.compression.streaming import (ConstantSegment, LinearSegment,
                                         OnlinePMC, OnlineSwing,
                                         reconstruct, restore_compressor,
                                         segment_from_wire, segment_to_wire,
                                         segments_payload)
from repro.datasets import TimeSeries


def noisy_series(n=800, seed=0):
    rng = np.random.default_rng(seed)
    return 20 + rng.normal(0, 1, n).cumsum() * 0.1


def test_online_pmc_matches_batch_segmentation():
    values = noisy_series()
    encoder = OnlinePMC(0.1)
    encoder.extend(values)
    encoder.flush()
    batch = PMC().compress(TimeSeries(values, interval=60), 0.1)
    assert len(encoder.segments) == batch.num_segments
    assert np.array_equal(reconstruct(encoder.segments),
                          batch.decompressed.values)


def test_streamed_pmc_constants_follow_the_batch_store_rule():
    # In this walk one 5-point window's mean lies below its admissible
    # interval [20.0670703104, 20.0706286617].  Clamping it to the lower
    # edge and then rounding to float32 stored 20.0670700073, one point
    # outside Definition 4's bound.  The batch rule nudges the float32
    # one ULP back inside; stream and push now store by that rule too.
    values = 20 + np.random.default_rng(13).normal(0, 1, 2000).cumsum() * 0.01
    batch = PMC().compress(TimeSeries(values, interval=60), 0.001)
    assert np.all(np.abs(batch.decompressed.values - values)
                  <= 0.001 * np.abs(values))
    bulk = OnlinePMC(0.001)
    bulk.extend(values)
    bulk.flush()
    pointwise = OnlinePMC(0.001)
    for value in values:
        pointwise.push(value)
    pointwise.flush()
    for encoder in (bulk, pointwise):
        assert np.array_equal(reconstruct(encoder.segments),
                              batch.decompressed.values)


def test_online_swing_matches_batch_reconstruction():
    values = noisy_series(seed=1)
    encoder = OnlineSwing(0.1)
    encoder.extend(values)
    encoder.flush()
    batch = Swing().compress(TimeSeries(values, interval=60), 0.1)
    assert len(encoder.segments) == batch.num_segments
    assert np.allclose(reconstruct(encoder.segments),
                       batch.decompressed.values, atol=1e-5)


def test_push_returns_segments_as_they_close():
    encoder = OnlinePMC(0.01)
    closed = []
    for value in [1.0, 1.0, 1.0, 5.0, 5.0, 9.0]:
        closed += encoder.push(value)
    closed += encoder.flush()
    assert [type(s) for s in closed] == [ConstantSegment] * 3
    assert [s.length for s in closed] == [3, 2, 1]


def test_stream_length_preserved():
    values = noisy_series(seed=2)
    encoder = OnlineSwing(0.05)
    encoder.extend(values)
    encoder.flush()
    assert sum(s.length for s in encoder.segments) == len(values)


def test_error_bound_respected_by_stream():
    values = noisy_series(seed=3)
    for encoder in (OnlinePMC(0.1), OnlineSwing(0.1)):
        encoder.extend(values)
        encoder.flush()
        decoded = reconstruct(encoder.segments)
        assert np.all(np.abs(decoded - values)
                      <= 0.1 * np.abs(values) + 1e-5)


def test_push_after_flush_rejected():
    encoder = OnlinePMC(0.1)
    encoder.push(1.0)
    encoder.flush()
    with pytest.raises(RuntimeError):
        encoder.push(2.0)


def test_double_flush_is_noop():
    encoder = OnlinePMC(0.1)
    encoder.push(1.0)
    first = encoder.flush()
    assert len(first) == 1
    assert encoder.flush() == []


def test_max_segment_length_enforced():
    encoder = OnlinePMC(0.5, max_segment_length=10)
    encoder.extend(np.ones(25))
    encoder.flush()
    assert [s.length for s in encoder.segments] == [10, 10, 5]


def test_pmc_and_swing_close_identically_at_max_length():
    # Audit of the max-segment predicate: OnlinePMC's `count` includes the
    # incoming point while OnlineSwing's `run` counts steps after the
    # anchor, so `count > max` and `run + 1 > max` are the SAME
    # "prospective length > max" rule — on a constant stream both close at
    # exactly max_segment_length, never one point apart.
    for encoder in (OnlinePMC(0.5, max_segment_length=10),
                    OnlineSwing(0.5, max_segment_length=10)):
        encoder.extend(np.ones(25))
        encoder.flush()
        assert [s.length for s in encoder.segments] == [10, 10, 5], encoder


@pytest.mark.parametrize("boundary", [1, 2, 9, 10, 11])
def test_streaming_matches_batch_at_boundary_lengths(monkeypatch, boundary):
    # pin the streaming-vs-batch segmentation equality AT the cap: with the
    # batch cap shrunk to the same small value, segment counts, lengths,
    # and reconstructions must agree for both algorithms
    from repro.compression import timestamps

    monkeypatch.setattr(timestamps, "MAX_SEGMENT_LENGTH", boundary)
    rng = np.random.default_rng(7)
    values = 20 + rng.normal(0, 1, 200).cumsum() * 0.01
    series = TimeSeries(values, interval=60)
    for online_cls, batch_cls in ((OnlinePMC, PMC), (OnlineSwing, Swing)):
        encoder = online_cls(0.05, max_segment_length=boundary)
        encoder.extend(values)
        encoder.flush()
        batch = batch_cls().compress(series, 0.05)
        assert max(s.length for s in encoder.segments) <= boundary
        assert len(encoder.segments) == batch.num_segments, online_cls
        assert np.allclose(reconstruct(encoder.segments),
                           batch.decompressed.values, atol=1e-5), online_cls


def test_negative_error_bound_rejected():
    with pytest.raises(ValueError):
        OnlinePMC(-0.1)


def test_empty_stream_flush():
    encoder = OnlineSwing(0.1)
    assert encoder.flush() == []
    assert reconstruct(encoder.segments).size == 0


def test_linear_segment_reconstruction():
    segment = LinearSegment(length=4, slope=2.0, intercept=1.0)
    assert segment.reconstruct().tolist() == [1.0, 3.0, 5.0, 7.0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=200),
       st.sampled_from([0.01, 0.1, 0.5]))
def test_property_streaming_pmc_equals_batch(values, error_bound):
    values = np.asarray(values)
    encoder = OnlinePMC(error_bound)
    encoder.extend(values)
    encoder.flush()
    batch = PMC().compress(TimeSeries(values, interval=60), error_bound)
    assert np.array_equal(reconstruct(encoder.segments),
                          batch.decompressed.values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=300),
       st.sampled_from([0.01, 0.1, 0.5]),
       st.sampled_from([1, 2, 3, 17, 0xFFFF]),
       st.data())
def test_property_carried_window_matches_one_extend_push_and_batch(
        values, error_bound, cap, data):
    # every extend after the first resumes the shared scan from a carried
    # window (virtual negative start); any partition of the stream must
    # close the same segments as one extend, as per-point push, and as the
    # batch codec under the same cap
    from repro.compression import timestamps

    values = np.asarray(values)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)),
                                     max_size=8)))
    series = TimeSeries(values, interval=60)
    for online_cls, batch_cls in ((OnlinePMC, PMC), (OnlineSwing, Swing)):
        parts = online_cls(error_bound, max_segment_length=cap)
        for part in np.split(values, cuts):
            parts.extend(part)
        parts.flush()
        whole = online_cls(error_bound, max_segment_length=cap)
        whole.extend(values)
        whole.flush()
        pointwise = online_cls(error_bound, max_segment_length=cap)
        for value in values:
            pointwise.push(value)
        pointwise.flush()
        assert parts.segments == whole.segments == pointwise.segments
        with mock.patch.object(timestamps, "MAX_SEGMENT_LENGTH", cap):
            batch = batch_cls().compress(series, error_bound)
        assert len(parts.segments) == batch.num_segments
        assert np.array_equal(reconstruct(parts.segments),
                              batch.decompressed.values)


# -- snapshot / restore ------------------------------------------------------


def _split_run(cls, values, cut):
    """Encode ``values`` with a snapshot/restore break after ``cut`` ticks."""
    first = cls(0.1)
    segments = first.extend(values[:cut])
    resumed = restore_compressor(first.snapshot())
    segments += resumed.extend(values[cut:])
    segments += resumed.flush()
    return segments


@pytest.mark.parametrize("cls", [OnlinePMC, OnlineSwing],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("cut", [0, 1, 7, 400, 799, 800])
def test_snapshot_restore_mid_segment_is_invisible(cls, cut):
    # a snapshot taken mid-open-segment then restored into a fresh object
    # must continue the stream byte-for-byte — the property eviction and
    # daemon restart lean on (see repro.server.sessions)
    values = noisy_series(seed=11)
    uninterrupted = cls(0.1)
    expected = uninterrupted.extend(values) + uninterrupted.flush()
    assert segments_payload(_split_run(cls, values, cut)) == \
        segments_payload(expected)


def test_snapshot_survives_json_round_trip():
    # snapshots cross the DiskCache boundary as JSON: a dumps/loads cycle
    # must not perturb the encoder state (floats stay exact, None stays
    # None for a Swing anchor that has not seen a tick yet)
    import json

    values = noisy_series(n=50, seed=12)
    encoder = OnlineSwing(0.1)
    head = encoder.extend(values[:20])
    snapshot = json.loads(json.dumps(encoder.snapshot()))
    resumed = restore_compressor(snapshot)
    tail = resumed.extend(values[20:]) + resumed.flush()
    uninterrupted = OnlineSwing(0.1)
    expected = uninterrupted.extend(values) + uninterrupted.flush()
    assert segments_payload(head + tail) == segments_payload(expected)


def test_snapshot_preserves_finished_flag():
    encoder = OnlinePMC(0.1)
    encoder.push(1.0)
    encoder.flush()
    resumed = restore_compressor(encoder.snapshot())
    with pytest.raises(RuntimeError):
        resumed.push(2.0)


def test_restore_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        restore_compressor({"algorithm": "Nope", "error_bound": 0.1,
                            "max_segment_length": 10, "finished": False,
                            "state": {}})


def test_segment_wire_round_trip():
    for segment in (ConstantSegment(length=4, value=2.5),
                    LinearSegment(length=7, slope=0.5, intercept=1.0)):
        kind, length, params = segment_to_wire(segment)
        assert segment_from_wire(kind, length, params) == segment


def test_segments_payload_is_injective_on_params():
    # byte-equality of payloads is the equivalence oracle: distinct
    # segment streams must never collide
    a = segments_payload([ConstantSegment(length=1, value=2.0)])
    b = segments_payload([ConstantSegment(length=2, value=1.0)])
    c = segments_payload([LinearSegment(length=1, slope=0.0, intercept=2.0)])
    assert len({a, b, c}) == 3
