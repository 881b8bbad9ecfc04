"""Kernel/scalar equivalence suite for the vectorized characteristics.

``hurst``, ``holt_parameters`` and ``flat_spots`` run on numpy kernels;
the per-chunk, per-cell and per-point loops they replaced live in
``repro.reference``.  Each kernel must return exactly what its twin
returns (NaN matching NaN, the same exception type where the twin
raises), on the shapes that stress them: empty and short series, zeros,
constants, sign changes, magnitudes near 1e±300 (where Holt's SSE
overflows to inf) and PMC-like staircases.  The last test pins the whole
catalogue, including the shift pairs that share one series per context.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.datasets import load
from repro.datasets.splits import split
from repro.features import registry, shift, smoothing, structure

GRID = np.linspace(0.05, 0.95, 7)
ALPHAS, BETAS = np.repeat(GRID, 7), np.tile(GRID, 7)


def holt_sse_cells(values):
    """Every coarse cell's SSE through the vector recursion."""
    return smoothing._holt_sse(values[:500], ALPHAS, BETAS)


def holt_sse_loops(values):
    """Every coarse cell's SSE through one scalar pass each."""
    return [reference.holt_sse(values[:500], alpha, beta)
            for alpha, beta in zip(ALPHAS, BETAS)]


# the SSE pair pins the recursion itself: holt_parameters only reports
# the winning cell, which survives last-bit SSE differences
TWINS = [
    (structure.hurst, reference.hurst),
    (smoothing.holt_parameters, reference.holt_parameters),
    (holt_sse_cells, holt_sse_loops),
    (structure.flat_spots, reference.flat_spots),
]


@st.composite
def series(draw):
    """A float64 series of 0–3,000 points in one of several shapes."""
    n = draw(st.integers(0, 3000))
    shape = draw(st.sampled_from(
        ["walk", "noise", "constant", "zeros", "staircase", "alternating"]))
    exponent = draw(st.sampled_from([-300, -150, -6, 0, 6, 150, 300])
                    | st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "walk":
        values = np.cumsum(rng.normal(0.0, 1.0, n))
    elif shape == "noise":
        values = rng.normal(draw(st.floats(-3.0, 3.0)), 1.0, n)
    elif shape == "constant":
        values = np.full(n, draw(st.floats(-5.0, 5.0)))
    elif shape == "zeros":
        values = np.zeros(n)
    elif shape == "staircase":
        steps = rng.normal(0.0, 1.0, max(n // 8, 1))
        values = np.repeat(steps, rng.integers(1, 200, len(steps)))[:n]
    else:
        values = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        values = values * rng.uniform(0.5, 2.0, n)
    values = values * 10.0 ** exponent
    if n and draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        values[start:start + draw(st.integers(1, 100))] = 0.0
    return values


raw_floats = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      max_size=80).map(lambda xs: np.array(xs, dtype=float))


def outcome(fn, values):
    """The result of ``fn(values)`` as a float array, or the type it raised."""
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(values), dtype=np.float64)
        except Exception as exc:  # compared by type against the twin
            return type(exc)


def assert_twins_agree(values):
    for kernel, twin in TWINS:
        fast, slow = outcome(kernel, values), outcome(twin, values)
        if isinstance(slow, type):
            assert fast is slow, kernel.__name__
        else:
            assert np.array_equal(fast, slow, equal_nan=True), (
                kernel.__name__, fast, slow)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(series())
def test_kernels_match_reference_twins(values):
    assert_twins_agree(values)


@settings(max_examples=120, deadline=None)
@given(raw_floats)
def test_kernels_match_reference_twins_on_arbitrary_floats(values):
    assert_twins_agree(values)


@pytest.mark.parametrize("values", [
    np.array([]), np.array([1.0]), np.array([1.0, 2.0]),
    np.zeros(40), np.full(64, 1e300), np.full(64, -1e-300),
    np.repeat([1e300, -1e300], 300),
    np.linspace(1e300, 1.7e308, 500),
    np.repeat([1.0, 5.0, 9.0, 2.0], 50),
], ids=["empty", "one", "two", "zeros", "huge-constant", "tiny-constant",
        "huge-sign-change", "near-overflow", "staircase"])
def test_kernels_match_reference_twins_on_edge_shapes(values):
    assert_twins_agree(values)


def test_holt_sse_overflows_like_the_scalar_loop():
    values = np.linspace(1e300, 1.7e308, 500)
    vector, scalar = outcome(holt_sse_cells, values), outcome(
        holt_sse_loops, values)
    assert not np.isfinite(vector).all()
    assert np.array_equal(vector, scalar, equal_nan=True)


def test_compute_all_matches_reference_catalogue_on_ettm1(monkeypatch):
    dataset = load("ETTm1")
    values = split(dataset).test.target_series.values
    period = dataset.seasonal_period
    fast = registry.compute_all(values, period)
    with monkeypatch.context() as patch:
        patch.setattr(structure, "hurst", reference.hurst)
        patch.setattr(structure, "flat_spots", reference.flat_spots)
        patch.setattr(smoothing, "holt_parameters", reference.holt_parameters)
        for name in ("max_kl_shift", "time_kl_shift", "max_level_shift",
                     "time_level_shift", "max_var_shift", "time_var_shift"):
            per_name = getattr(shift, name)
            patch.setitem(registry.FEATURES, name,
                          lambda c, fn=per_name: fn(c.values, c.shift_width))
        slow = registry.compute_all(values, period)
    assert list(fast) == list(slow)
    assert np.array_equal(list(fast.values()), list(slow.values()),
                          equal_nan=True)
