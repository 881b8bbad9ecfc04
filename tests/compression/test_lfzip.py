"""Tests for the LFZip NLMS predictive compressor (batch + streaming)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LFZip, check_error_bound
from repro.compression.lfzip import (DEFAULT_BLOCK_SIZE, INIT_WEIGHTS,
                                     block_step, decode_block,
                                     encode_block_kernel, update_weights)
from repro.compression.streaming import (OnlineLFZip, reconstruct,
                                         restore_compressor,
                                         segment_from_wire, segment_to_wire,
                                         segments_payload)
from repro.datasets import TimeSeries
from repro.reference import (ReferenceLFZip, lfzip_encode_block,
                             lfzip_update_weights)


def series_of(values, interval=60):
    return TimeSeries(np.asarray(values, dtype=float), interval=interval)


def noisy_series(n=1200, seed=0):
    rng = np.random.default_rng(seed)
    return 20 + rng.normal(0, 1, n).cumsum() * 0.1


def test_error_bound_is_respected_on_noisy_data():
    series = series_of(noisy_series())
    for eb in [0.01, 0.05, 0.1, 0.4]:
        result = LFZip().compress(series, eb)
        assert check_error_bound(series, result.decompressed, eb)


def test_kernel_and_scalar_payloads_are_byte_identical():
    series = series_of(noisy_series(seed=1))
    for eb in [0.01, 0.1, 0.4]:
        kernel = LFZip().compress(series, eb)
        scalar = ReferenceLFZip().compress(series, eb)
        assert kernel.compressed == scalar.compressed
        assert np.array_equal(kernel.decompressed.values,
                              scalar.decompressed.values)


def test_block_encoders_agree_symbol_for_symbol():
    rng = np.random.default_rng(9)
    block = 50 + rng.normal(0, 2, DEFAULT_BLOCK_SIZE).cumsum() * 0.05
    step = block_step(block, 0.1)
    tolerance = 0.1 * np.abs(block)
    for encode in (encode_block_kernel, lfzip_encode_block):
        symbols, outliers, recon, t_values, escaped = encode(
            block, tolerance, step, 0.0, INIT_WEIGHTS)
        decoded, t_dec, esc_dec = decode_block(
            step, 0.0, INIT_WEIGHTS, np.asarray(symbols),
            np.asarray(outliers))
        assert np.array_equal(decoded, recon)
        assert np.array_equal(t_dec, t_values)
        assert np.array_equal(esc_dec, escaped)
    k = encode_block_kernel(block, tolerance, step, 0.0, INIT_WEIGHTS)
    s = lfzip_encode_block(block, tolerance, step, 0.0, INIT_WEIGHTS)
    assert np.array_equal(np.asarray(k[0]), np.asarray(s[0]))
    assert list(k[1]) == list(s[1])


def test_decoder_replays_the_encoder_weight_sweep():
    """Weights are never serialized: decode must converge to the same
    NLMS state the encoder reached, block after block."""
    values = noisy_series(seed=5)
    series = series_of(values)
    result = LFZip().compress(series, 0.05)
    round_tripped = LFZip().decompress(result.compressed)
    assert np.array_equal(round_tripped.values, result.decompressed.values)


def test_round_trip_through_bytes():
    rng = np.random.default_rng(2)
    series = series_of(400 + rng.normal(0, 5, 700), interval=600)
    result = LFZip().compress(series, 0.05)
    reconstructed = LFZip().decompress(result.compressed)
    assert np.array_equal(reconstructed.values, result.decompressed.values)
    assert reconstructed.start == series.start
    assert reconstructed.interval == series.interval


@pytest.mark.parametrize("bit", [0, 20, 31])
def test_corrupt_count_header_is_refused_before_allocating(bit):
    from repro.compression import timestamps
    from repro.compression.base import gunzip_bytes, gzip_bytes

    rng = np.random.default_rng(2)
    series = series_of(400 + rng.normal(0, 5, 700), interval=600)
    payload = bytearray(
        gunzip_bytes(LFZip().compress(series, 0.05).compressed))
    # the value count follows the timestamp header; unchecked, a flipped
    # high bit sized a multi-GiB array before anything was decoded
    offset = len(timestamps.encode_header(series.start, series.interval))
    payload[offset + bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(ValueError, match="corrupt LFZip"):
        LFZip().decompress(gzip_bytes(bytes(payload)))


def test_handles_zeros_exactly():
    """A zero anywhere in a block forces step 0 -> outlier storage; the
    relative bound then demands exactness at the zeros themselves."""
    values = np.concatenate([np.zeros(100), np.full(60, 8.0), np.zeros(100)])
    series = series_of(values)
    result = LFZip().compress(series, 0.1)
    assert np.all(result.decompressed.values[:100] == 0.0)
    assert np.all(result.decompressed.values[-100:] == 0.0)
    assert check_error_bound(series, result.decompressed, 0.1)


def test_compresses_predictable_data_well():
    from repro.compression import raw_gz_size

    t = np.linspace(0, 12 * np.pi, 4000)
    series = series_of(np.round(420.0 + 10 * np.sin(t), 2))
    result = LFZip().compress(series, 0.05)
    assert raw_gz_size(series) / result.compressed_size > 3


def test_rejects_tiny_block_size():
    with pytest.raises(ValueError):
        LFZip(block_size=2)


def test_update_weights_stays_finite_on_wild_data():
    t_values = np.array([1e18, -1e18, 1e18, -1e18, 1e18], dtype=np.float64)
    weights = update_weights(INIT_WEIGHTS, t_values,
                             np.zeros(t_values.size, dtype=bool))
    assert all(np.isfinite(w) for w in weights)


def _weight_bits(weights):
    return np.asarray(weights, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-5000, 5000), st.integers(0, 19)),
                min_size=1, max_size=160),
       st.sampled_from([INIT_WEIGHTS, (0.5, -0.25, 0.125, 0.0),
                        (-0.0, 0.0, 1e-300, 3.0)]),
       st.sampled_from([None, 0.0, -0.0, 1e160, 1e300]))
def test_property_unrolled_sweep_matches_the_list_loop(steps, weights,
                                                       spike):
    """Lattice coordinates walk like a block's (one in twenty points an
    escape); a spike in the middle may overflow the sweep into the
    non-finite reset.  The weights match bit for bit."""
    t_values = np.cumsum([step for step, _ in steps]).astype(np.float64)
    escaped = np.array([lane == 0 for _, lane in steps])
    if spike is not None:
        t_values[len(t_values) // 2] = spike
    assert _weight_bits(update_weights(weights, t_values, escaped)) == \
        _weight_bits(lfzip_update_weights(weights, t_values, escaped))


def test_unrolled_sweep_matches_the_list_loop_on_random_walks():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t_values = np.round(rng.normal(size=128).cumsum() * 50)
        escaped = rng.random(128) < 0.05
        assert _weight_bits(update_weights(INIT_WEIGHTS, t_values,
                                           escaped)) == \
            _weight_bits(lfzip_update_weights(INIT_WEIGHTS, t_values,
                                              escaped))


def test_unrolled_sweep_resets_a_non_finite_filter():
    t_values = np.array([1.0, 1e300, 1e300, 1e300])
    escaped = np.zeros(4, dtype=bool)
    assert lfzip_update_weights(INIT_WEIGHTS, t_values, escaped) == \
        INIT_WEIGHTS
    assert update_weights(INIT_WEIGHTS, t_values, escaped) == INIT_WEIGHTS


def test_huge_codes_are_a_corrupt_payload_not_an_overflow():
    """Codes no encoder writes first blow the replayed weights up, then
    drive the next block's prediction to inf; ``round(inf)`` used to
    raise a bare ``OverflowError``."""
    from repro.compression.base import gzip_bytes

    n = 256
    codes = np.ones(n, dtype=np.int64)
    codes[:3] = [1, 1 << 40, 3 << 40]
    symbols = ((codes << 1) ^ (codes >> 63)) + 1
    codec = LFZip()
    payload = codec._serialize(series_of(np.zeros(n)), n, [1.0, 1.0],
                               symbols, [])
    with pytest.raises(ValueError, match="corrupt LFZip payload"):
        codec.decompress(gzip_bytes(payload))


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_decode_block_refuses_a_non_finite_prediction(weight):
    symbols = np.array([3, 3], dtype=np.int64)  # codes +1, +1
    with pytest.raises(ValueError, match="non-finite prediction"):
        decode_block(1.0, 0.0, (weight, 0.0, 0.0, 0.0), symbols,
                     np.empty(0))


# -- streaming ----------------------------------------------------------------


def test_online_matches_batch_reconstruction():
    values = noisy_series()
    encoder = OnlineLFZip(0.1)
    encoder.extend(values)
    encoder.flush()
    batch = LFZip().compress(series_of(values), 0.1)
    assert np.array_equal(reconstruct(encoder.segments),
                          batch.decompressed.values)


def test_push_and_extend_agree():
    values = noisy_series(n=700, seed=3)
    one = OnlineLFZip(0.05)
    for v in values:
        one.push(v)
    one.flush()
    other = OnlineLFZip(0.05)
    other.extend(values)
    other.flush()
    assert segments_payload(one.segments) == segments_payload(other.segments)


def test_error_bound_respected_by_stream():
    values = noisy_series(n=900, seed=4)
    encoder = OnlineLFZip(0.05)
    encoder.extend(values)
    encoder.flush()
    recon = reconstruct(encoder.segments)
    assert np.all(np.abs(recon - values)
                  <= 0.05 * np.abs(values) + 1e-6 * np.maximum(
                      1.0, np.abs(values)))


@pytest.mark.parametrize("cut", [1, 63, 128, 129, 500])
def test_snapshot_restore_mid_block_is_invisible(cut):
    # a snapshot taken mid-buffer (NLMS weights, carry, partial block)
    # restored into a fresh object must continue the stream byte-for-byte
    values = noisy_series(n=640, seed=6)
    straight = OnlineLFZip(0.1)
    expected = straight.extend(values) + straight.flush()

    first = OnlineLFZip(0.1)
    segments = first.extend(values[:cut])
    snapshot = json.loads(json.dumps(first.snapshot()))
    resumed = restore_compressor(snapshot)
    segments += resumed.extend(values[cut:])
    segments += resumed.flush()
    assert segments_payload(segments) == segments_payload(expected)


def test_segment_wire_round_trip():
    encoder = OnlineLFZip(0.1)
    encoder.extend(noisy_series(n=300, seed=7))
    encoder.flush()
    assert encoder.segments
    for segment in encoder.segments:
        kind, length, params = segment_to_wire(segment)
        assert kind == "lfzip"
        restored = segment_from_wire(kind, length, params)
        assert restored == segment
        assert np.array_equal(restored.reconstruct(), segment.reconstruct())


def test_segment_from_wire_rejects_malformed_params():
    encoder = OnlineLFZip(0.1)
    encoder.extend(noisy_series(n=200, seed=8))
    encoder.flush()
    kind, length, params = segment_to_wire(encoder.segments[0])
    with pytest.raises(ValueError):
        segment_from_wire(kind, length, params[:-1])


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False,
                              width=32),
                    min_size=2, max_size=400),
    error_bound=st.sampled_from([0.01, 0.1, 0.4]),
)
def test_property_bound_kernel_identity_and_stream_equivalence(
        values, error_bound):
    series = series_of(values)
    result = LFZip().compress(series, error_bound)
    assert check_error_bound(series, result.decompressed, error_bound)
    assert (ReferenceLFZip().compress(series, error_bound).compressed
            == result.compressed)
    encoder = OnlineLFZip(error_bound)
    encoder.extend(series.values)
    encoder.flush()
    assert np.array_equal(reconstruct(encoder.segments),
                          result.decompressed.values)
