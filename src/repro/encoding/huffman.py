"""Canonical Huffman coding over integer symbols.

The SZ compressor quantizes prediction residuals into a small alphabet of
integer codes and entropy-codes them with Huffman before the final gzip
stage, exactly as described in the paper's Section 3.2.  The encoded stream
is self-describing: the code-length table is stored in the header so the
decoder can rebuild the canonical code.

Both directions run a table-driven array kernel.  The encode kernel looks
every symbol's ``(code, length)`` up in a dense table, expands the codes
into an MSB-first bit matrix, and packs the valid bits with
``np.packbits``; the decode kernel unpacks the payload with
``np.unpackbits`` and walks it through a dense ``2**max_length`` prefix
table, one table lookup per symbol instead of one dict probe per bit.
Degenerate shapes (huge symbols, very long codes) do not fit those tables
and fall back to the per-bit ``BitWriter``/``BitReader`` loops
(:func:`_pack_bits`/:func:`_unpack_bits`).  ``repro/reference.py`` runs
those loops on every input, and the equivalence tests pin the two paths
to byte-identical streams.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.encoding.bits import BitReader, BitWriter
from repro.encoding import varint

# The encode kernel's symbol -> (code, length) lookup is a dense array, so
# absurdly large symbol values fall back to the per-bit path.
_MAX_DENSE_SYMBOL = 1 << 22
# The decode kernel's prefix table has 2**max_length entries.
_MAX_DENSE_BITS = 18
# Codes longer than this cannot be expanded into the int64 bit matrix.
_MAX_KERNEL_CODE_LENGTH = 63


def code_lengths(symbols: Iterable[int]) -> dict[int, int]:
    """Compute Huffman code lengths for the given symbol stream.

    Returns a mapping ``symbol -> bit length``.  A stream with a single
    distinct symbol gets a 1-bit code so the output remains decodable.
    """
    if isinstance(symbols, np.ndarray):
        uniques, counts = np.unique(symbols, return_counts=True)
        frequencies = Counter(dict(zip(uniques.tolist(), counts.tolist())))
    else:
        frequencies = Counter(symbols)
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        only = next(iter(frequencies))
        return {only: 1}
    # Classic heap merge; entries are (weight, tiebreak, [symbols...]).
    heap: list[tuple[int, int, list[int]]] = [
        (weight, index, [symbol])
        for index, (symbol, weight) in enumerate(sorted(frequencies.items()))
    ]
    heapq.heapify(heap)
    lengths: dict[int, int] = {symbol: 0 for symbol in frequencies}
    tiebreak = len(heap)
    while len(heap) > 1:
        weight_a, _, group_a = heapq.heappop(heap)
        weight_b, _, group_b = heapq.heappop(heap)
        for symbol in group_a + group_b:
            lengths[symbol] += 1
        heapq.heappush(heap, (weight_a + weight_b, tiebreak, group_a + group_b))
        tiebreak += 1
    return lengths


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical codes; returns ``symbol -> (code, bit_length)``.

    Canonical assignment sorts by (length, symbol) so the table can be
    reconstructed from lengths alone.
    """
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


def _pack_kernel(symbols: np.ndarray,
                 codes: dict[int, tuple[int, int]]) -> bytes | None:
    """Array-packed payload bits; ``None`` if the shape needs the bit loop."""
    max_symbol = int(symbols.max())
    max_length = max(length for _, length in codes.values())
    if max_symbol > _MAX_DENSE_SYMBOL or max_length > _MAX_KERNEL_CODE_LENGTH:
        return None
    code_table = np.zeros(max_symbol + 1, dtype=np.int64)
    length_table = np.zeros(max_symbol + 1, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        code_table[symbol] = code
        length_table[symbol] = length
    sym_codes = code_table[symbols]
    sym_lengths = length_table[symbols]
    # Bit j of row i is bit (length_i - 1 - j) of code_i; rows shorter than
    # max_length mask their tail out, and the C-order boolean selection
    # yields exactly the MSB-first concatenation BitWriter produces.
    shifts = sym_lengths[:, None] - 1 - np.arange(max_length, dtype=np.int64)
    valid = shifts >= 0
    bits = (sym_codes[:, None] >> np.maximum(shifts, 0)) & 1
    return np.packbits(bits[valid].astype(np.uint8)).tobytes()


def _pack_bits(symbols: Sequence[int],
               codes: dict[int, tuple[int, int]]) -> bytes:
    """Per-symbol ``BitWriter`` packing, for shapes the kernel cannot take."""
    writer = BitWriter()
    for symbol in symbols:
        code, length = codes[symbol]
        writer.write_bits(code, length)
    return writer.to_bytes()


def _header(symbols: Sequence[int]
            ) -> tuple[bytes, dict[int, tuple[int, int]]]:
    """Stream header (counts and code-length table) plus the canonical code."""
    lengths = code_lengths(symbols)
    header = bytearray()
    header += varint.encode_unsigned(len(symbols))
    header += varint.encode_unsigned(len(lengths))
    for symbol in sorted(lengths):
        header += varint.encode_unsigned(int(symbol))
        header += varint.encode_unsigned(lengths[symbol])
    return bytes(header), canonical_codes(lengths)


def encode(symbols: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers.

    Layout: ``varint(n_symbols) varint(n_distinct)
    [varint(symbol) varint(length)]* payload_bits``.
    """
    header, codes = _header(symbols)
    if len(symbols):
        array = np.ascontiguousarray(symbols, dtype=np.int64)
        packed = _pack_kernel(array, codes)
        if packed is not None:
            return header + packed
    return header + _pack_bits(symbols, codes)


def _unpack_kernel(payload: bytes, codes: dict[int, tuple[int, int]],
                   count: int) -> list[int] | None:
    """Dense-table array decode; ``None`` when the code is too long."""
    max_length = max(length for _, length in codes.values())
    if max_length > _MAX_DENSE_BITS:
        return None
    table_symbol = np.zeros(1 << max_length, dtype=np.int64)
    table_length = np.zeros(1 << max_length, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        start = code << (max_length - length)
        span = 1 << (max_length - length)
        table_symbol[start:start + span] = symbol
        table_length[start:start + span] = length
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    padded = np.concatenate([bits, np.zeros(max_length, dtype=np.uint8)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, max_length)
    powers = 1 << np.arange(max_length - 1, -1, -1, dtype=np.int64)
    prefixes = (windows @ powers).tolist()
    symbol_at = table_symbol.tolist()
    advance = table_length.tolist()
    total_bits = len(bits)
    symbols = [0] * count
    position = 0
    for i in range(count):
        if position >= total_bits:
            raise EOFError("attempted to read past the end of the bit stream")
        window = prefixes[position]
        symbols[i] = symbol_at[window]
        position += advance[window]
    return symbols


def _unpack_bits(payload: bytes, codes: dict[int, tuple[int, int]],
                 count: int) -> list[int]:
    """Per-bit ``BitReader`` decode, for codes too long for the table."""
    decoding = {
        (code, length): symbol
        for symbol, (code, length) in codes.items()
    }
    reader = BitReader(payload)
    symbols: list[int] = []
    code = 0
    length = 0
    while len(symbols) < count:
        code = (code << 1) | reader.read_bit()
        length += 1
        symbol = decoding.get((code, length))
        if symbol is not None:
            symbols.append(symbol)
            code = 0
            length = 0
    return symbols


def _read_header(data: bytes
                 ) -> tuple[int, dict[int, tuple[int, int]], int]:
    """``(symbol count, canonical code, payload offset)`` of a stream."""
    count, offset = varint.decode_unsigned(data, 0)
    distinct, offset = varint.decode_unsigned(data, offset)
    lengths: dict[int, int] = {}
    for _ in range(distinct):
        symbol, offset = varint.decode_unsigned(data, offset)
        length, offset = varint.decode_unsigned(data, offset)
        lengths[symbol] = length
    if count and not lengths:
        raise ValueError("huffman stream announces symbols but carries no table")
    return count, canonical_codes(lengths), offset


def decode(data: bytes) -> list[int]:
    """Decode a stream produced by :func:`encode`."""
    count, codes, offset = _read_header(data)
    if count:
        unpacked = _unpack_kernel(data[offset:], codes, count)
        if unpacked is not None:
            return unpacked
    return _unpack_bits(data[offset:], codes, count)
