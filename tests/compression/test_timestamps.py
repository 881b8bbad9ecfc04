"""Tests for the shared timestamp header codec (Section 3.2)."""

import pytest

from repro.compression import timestamps


def test_header_round_trip():
    encoded = timestamps.encode_header(1_600_000_000, 900)
    start, interval, offset = timestamps.decode_header(encoded)
    assert (start, interval) == (1_600_000_000, 900)
    assert offset == len(encoded)


def test_header_is_six_bytes():
    """i32 start + u16 interval, exactly as Section 3.2 specifies."""
    assert len(timestamps.encode_header(1_600_000_000, 900)) == 6


def test_interval_must_fit_16_bits():
    with pytest.raises(ValueError):
        timestamps.encode_header(0, 0)
    with pytest.raises(ValueError):
        timestamps.encode_header(0, 1 << 16)
