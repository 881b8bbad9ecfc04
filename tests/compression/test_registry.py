"""Tests for the compressor registry and paper constants."""

import pytest

from repro import registry
from repro.compression import LOSSY_METHODS, PAPER_ERROR_BOUNDS, make


def test_paper_error_bounds_match_section_3_2():
    assert PAPER_ERROR_BOUNDS == (0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2,
                                  0.25, 0.3, 0.4, 0.5, 0.65, 0.8)


def test_error_bounds_are_denser_below_0_1():
    below = [eb for eb in PAPER_ERROR_BOUNDS if eb <= 0.1]
    assert len(below) == 5


def test_lossy_methods():
    assert LOSSY_METHODS == ("PMC", "SWING", "SZ")
    for name in LOSSY_METHODS:
        assert make(name).is_lossy


def test_gorilla_is_lossless():
    assert not make("GORILLA").is_lossy


def test_all_methods_instantiable_with_matching_names():
    for name in registry.compressor_names():
        assert make(name).name == name


def test_unknown_method_rejected():
    with pytest.raises(KeyError):
        make("zstd")
