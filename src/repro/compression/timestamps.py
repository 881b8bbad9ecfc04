"""Timestamp header shared by every method (Section 3.2).

The paper stores, for all compressors alike, the first timestamp as a 32-bit
integer, the sampling interval as a 16-bit integer, and each generated
segment's length as an unsigned 16-bit integer, so timestamp storage cannot
favour one method over another.  Every segmenter therefore caps a segment
at ``MAX_SEGMENT_LENGTH`` (65,535) points and starts a new one there.
"""

from __future__ import annotations

import struct

_HEADER = struct.Struct("<iH")  # first timestamp (i32), interval (u16)
MAX_SEGMENT_LENGTH = 0xFFFF

# The paper's datasets start in the 2020s; 32 bits cannot hold raw epoch
# seconds for the 2-second Wind data spanning years, so, like ModelarDB,
# we store the offset from a fixed epoch.
_EPOCH = 1_577_836_800  # 2020-01-01T00:00:00Z


def encode_header(start: int, interval: int) -> bytes:
    """Encode the shared (first timestamp, interval) header."""
    if not 0 < interval <= 0xFFFF:
        raise ValueError(f"interval must fit in an unsigned 16-bit int, got {interval}")
    return _HEADER.pack(start - _EPOCH, interval)


def decode_header(data: bytes, offset: int = 0) -> tuple[int, int, int]:
    """Decode the header; returns ``(start, interval, next_offset)``."""
    delta, interval = _HEADER.unpack_from(data, offset)
    return delta + _EPOCH, interval, offset + _HEADER.size

