"""Facebook Gorilla floating-point compression (Pelkonen et al., VLDB 2015).

Lossless XOR-based codec used by the paper as the baseline for what
lossless compression currently achieves (Section 3.3).  Following the
paper's variant, the whole series is compressed as a single block rather
than Gorilla's original two-hour windows.

Per value: XOR with the previous value; a zero XOR emits a single '0' bit;
otherwise '1' plus either '0' (the meaningful bits fit in the previous
leading/trailing window, store only those bits) or '1' followed by 5 bits
of leading-zero count, 6 bits of meaningful-bit length, and the bits
themselves.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression import timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    record_result)
from repro.datasets.timeseries import TimeSeries
from repro.encoding.bits import BitReader, BitWriter
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")


def _float_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@register_compressor("GORILLA", lossy=False, error_bound="none",
                     description="lossless XOR-of-floats baseline")
class Gorilla(Compressor):
    """Lossless Gorilla XOR compression of 64-bit floats."""

    name = "GORILLA"
    is_lossy = False

    def compress(self, series: TimeSeries, error_bound: float = 0.0
                 ) -> CompressionResult:
        self._check_inputs(series, error_bound)
        values = series.values
        writer = BitWriter()
        previous = _float_to_bits(float(values[0]))
        writer.write_bits(previous, 64)
        leading, trailing = 65, 65  # sentinel: no previous window
        for value in values[1:]:
            current = _float_to_bits(float(value))
            xor = previous ^ current
            previous = current
            if xor == 0:
                writer.write_bit(0)
                continue
            writer.write_bit(1)
            new_leading = min(_clz64(xor), 31)  # 5-bit field
            new_trailing = _ctz64(xor)
            if new_leading >= leading and new_trailing >= trailing:
                # Meaningful bits fit inside the previous window.
                writer.write_bit(0)
                meaningful = 64 - leading - trailing
                writer.write_bits(xor >> trailing, meaningful)
            else:
                writer.write_bit(1)
                leading, trailing = new_leading, new_trailing
                meaningful = 64 - leading - trailing
                writer.write_bits(leading, 5)
                # 6 bits hold 0..63; Gorilla stores 64 meaningful bits as 0.
                writer.write_bits(meaningful & 0x3F, 6)
                writer.write_bits(xor >> trailing, meaningful)

        # Gorilla is already a binary encoding; the paper does not add gzip.
        compressed = (timestamps.encode_header(series.start, series.interval)
                      + _COUNT.pack(len(values)) + writer.to_bytes())
        return record_result(CompressionResult(
            method=self.name,
            error_bound=0.0,
            decompressed=self.decompress(compressed),
            compressed=compressed,
            num_segments=1,
        ))

    def decompress(self, compressed: bytes) -> TimeSeries:
        start, interval, offset = timestamps.decode_header(compressed)
        (count,) = _COUNT.unpack_from(compressed, offset)
        offset += _COUNT.size
        reader = BitReader(compressed[offset:])
        values = np.empty(count, dtype=np.float64)
        previous = reader.read_bits(64)
        values[0] = _bits_to_float(previous)
        leading, trailing = 65, 65
        for i in range(1, count):
            if reader.read_bit() == 0:
                values[i] = _bits_to_float(previous)
                continue
            if reader.read_bit() == 0:
                meaningful = 64 - leading - trailing
            else:
                leading = reader.read_bits(5)
                meaningful = reader.read_bits(6)
                if meaningful == 0:
                    meaningful = 64
                trailing = 64 - leading - meaningful
            xor = reader.read_bits(meaningful) << trailing
            previous ^= xor
            values[i] = _bits_to_float(previous)
        return TimeSeries(values, start=start, interval=interval,
                          name="decompressed")


def _clz64(value: int) -> int:
    """Count leading zeros of a non-zero 64-bit integer."""
    return 64 - value.bit_length()


def _ctz64(value: int) -> int:
    """Count trailing zeros of a non-zero 64-bit integer."""
    return (value & -value).bit_length() - 1
