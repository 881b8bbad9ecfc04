"""Tests for canonical Huffman coding of integer symbol streams."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import huffman
from repro.reference import huffman_decode, huffman_encode


def test_empty_stream_round_trips():
    assert huffman.decode(huffman.encode([])) == []


def test_single_symbol_stream_round_trips():
    symbols = [7] * 100
    assert huffman.decode(huffman.encode(symbols)) == symbols


def test_two_symbol_codes_are_one_bit():
    lengths = huffman.code_lengths([0, 0, 0, 1])
    assert lengths == {0: 1, 1: 1}


def test_skewed_frequencies_give_shorter_codes_to_common_symbols():
    symbols = [0] * 1000 + [1] * 10 + [2] * 10 + [3] * 5
    lengths = huffman.code_lengths(symbols)
    assert lengths[0] < lengths[1]
    assert lengths[0] < lengths[3]


def test_canonical_codes_are_prefix_free():
    symbols = list(range(10)) * 3 + [0] * 20
    codes = huffman.canonical_codes(huffman.code_lengths(symbols))
    rendered = [format(code, f"0{length}b") for code, length in codes.values()]
    for a in rendered:
        for b in rendered:
            if a is not b:
                assert not b.startswith(a)


def test_encoded_size_beats_fixed_width_on_skewed_data():
    symbols = [0] * 10_000 + list(range(1, 17)) * 4
    encoded = huffman.encode(symbols)
    fixed_width_bits = len(symbols) * 5  # 17 symbols need 5 bits each
    assert len(encoded) * 8 < fixed_width_bits


def test_kraft_inequality_holds():
    symbols = [0] * 50 + [1] * 25 + [2] * 13 + [3] * 6 + [4] * 3 + [5]
    lengths = huffman.code_lengths(symbols)
    assert sum(2.0 ** -length for length in lengths.values()) <= 1.0 + 1e-12


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=300))
def test_round_trip(symbols):
    assert huffman.decode(huffman.encode(symbols)) == symbols


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=300))
def test_average_length_within_one_bit_of_entropy(symbols):
    import math

    counts = Counter(symbols)
    total = len(symbols)
    entropy = -sum(
        (count / total) * math.log2(count / total) for count in counts.values()
    )
    lengths = huffman.code_lengths(symbols)
    average = sum(lengths[symbol] * count for symbol, count in counts.items()) / total
    assert average <= entropy + 1.0 + 1e-9


def test_decode_rejects_missing_table():
    from repro.encoding import varint

    bogus = varint.encode_unsigned(5) + varint.encode_unsigned(0)
    with pytest.raises(ValueError):
        huffman.decode(bogus)


# --- table-driven kernel vs the BitWriter/BitReader reference


KERNEL_CASES = [
    [0],
    [5] * 64,
    [0, 1] * 40,
    list(range(64)) * 3,
    [0] * 1000 + list(range(1, 17)) * 4,
    [2**20, 0, 0, 2**20, 7],
]


@pytest.mark.parametrize("symbols", KERNEL_CASES,
                         ids=lambda s: f"n{len(s)}-max{max(s)}")
def test_kernel_and_scalar_encode_are_byte_identical(symbols):
    assert huffman.encode(symbols) == huffman_encode(symbols)


@pytest.mark.parametrize("symbols", KERNEL_CASES,
                         ids=lambda s: f"n{len(s)}-max{max(s)}")
def test_kernel_and_scalar_decode_agree(symbols):
    encoded = huffman.encode(symbols)
    assert huffman.decode(encoded) == symbols
    assert huffman_decode(encoded) == symbols


def test_ndarray_input_encodes_identically():
    import numpy as np

    symbols = [0] * 50 + [1] * 20 + [9] * 3
    array = np.asarray(symbols, dtype=np.int64)
    assert huffman.encode(array) == huffman_encode(symbols)


def test_huge_symbols_fall_back_to_scalar_writer():
    symbols = [huffman._MAX_DENSE_SYMBOL + 10, 0, 0, 1]
    encoded = huffman.encode(symbols)
    assert encoded == huffman_encode(symbols)
    assert huffman.decode(encoded) == symbols


def test_long_codes_fall_back_to_scalar_reader():
    # Fibonacci-ish frequencies force a deep, skewed tree whose longest
    # code exceeds the dense prefix table's _MAX_DENSE_BITS limit.
    symbols = []
    a, b = 1, 2
    for value in range(25):
        symbols += [value] * a
        a, b = b, a + b
    lengths = huffman.code_lengths(symbols)
    assert max(lengths.values()) > huffman._MAX_DENSE_BITS
    encoded = huffman.encode(symbols)
    assert huffman.decode(encoded) == symbols
    assert huffman_decode(encoded) == symbols


@given(st.lists(st.integers(min_value=0, max_value=600), min_size=1,
                max_size=400))
def test_property_kernel_scalar_byte_identical(symbols):
    kernel = huffman.encode(symbols)
    assert kernel == huffman_encode(symbols)
    assert huffman.decode(kernel) == symbols
