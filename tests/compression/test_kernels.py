"""Kernel/scalar equivalence suite for the vectorized compressors.

Every compressor runs on vectorized kernels; the per-point scalar loops
they replaced live in ``repro.reference`` as the reference implementation.
These tests pin the two to each other: identical segmentation, identical
in-memory reconstruction, and — the strongest form — byte-identical
serialized payloads, across the synthetic datasets, an error-bound sweep,
and the boundary shapes that historically break windowed codecs (constant
runs hitting ``MAX_SEGMENT_LENGTH``, single points, alternating signs,
escape-heavy SZ blocks, exact zeros).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.compression import PMC, SZ, Cameo, Swing
from repro.compression.timestamps import MAX_SEGMENT_LENGTH
from repro.datasets import TimeSeries, synthetic

COMPRESSORS = [PMC, Swing, Cameo, SZ]
DATASET_GENERATORS = [synthetic.ettm1, synthetic.ettm2, synthetic.solar,
                      synthetic.weather, synthetic.elecdem, synthetic.wind]
BOUNDS = [0.0, 0.01, 0.1, 0.5]


def series_of(values, interval=60):
    return TimeSeries(np.asarray(values, dtype=float), interval=interval)


def assert_paths_agree(compressor_class, series, error_bound):
    kernel = compressor_class().compress(series, error_bound)
    scalar = reference.make_compressor(compressor_class.name).compress(
        series, error_bound)
    assert kernel.compressed == scalar.compressed
    assert kernel.num_segments == scalar.num_segments
    assert np.array_equal(kernel.decompressed.values,
                          scalar.decompressed.values)
    return kernel


@pytest.mark.parametrize("compressor_class", COMPRESSORS)
@pytest.mark.parametrize("generator", DATASET_GENERATORS,
                         ids=lambda g: g.__name__)
def test_payloads_identical_on_synthetic_datasets(compressor_class, generator):
    series = generator(length=1500).target_series
    for error_bound in BOUNDS:
        if error_bound == 0.0 and compressor_class is SZ:
            continue  # SZ requires a positive bound
        assert_paths_agree(compressor_class, series, error_bound)


@pytest.mark.parametrize("compressor_class", COMPRESSORS)
def test_in_memory_reconstruction_matches_decode(compressor_class):
    """``CompressionResult.decompressed`` is built from in-memory state, not
    by re-decoding the payload; it must be bit-identical to a decode."""
    series = synthetic.ettm1(length=1200).target_series
    for error_bound in (0.01, 0.1, 0.4):
        result = compressor_class().compress(series, error_bound)
        decoded = compressor_class().decompress(result.compressed)
        assert np.array_equal(decoded.values, result.decompressed.values)


@pytest.mark.parametrize("compressor_class", COMPRESSORS)
@pytest.mark.parametrize("values", [
    [3.25],
    [1.0, 2.0],
    [5.0, 5.0, 5.0, 5.0],
    [1.0, -1.0] * 150,
    np.zeros(300),
    np.concatenate([np.zeros(100), [1e9], np.zeros(100)]),
    np.linspace(-4.0, 4.0, 257),
], ids=["single", "pair", "constant", "alternating", "zeros", "spike",
        "sign-crossing-ramp"])
def test_payloads_identical_on_boundary_shapes(compressor_class, values):
    series = series_of(values)
    for error_bound in (0.0, 0.1, 0.5):
        if error_bound == 0.0 and compressor_class is SZ:
            continue
        assert_paths_agree(compressor_class, series, error_bound)


@pytest.mark.parametrize("compressor_class", [PMC, Swing, Cameo])
@pytest.mark.parametrize("length", [MAX_SEGMENT_LENGTH,
                                    MAX_SEGMENT_LENGTH + 1,
                                    2 * MAX_SEGMENT_LENGTH + 17])
def test_max_segment_length_cap_agrees(compressor_class, length):
    """A constant series forces windows to close exactly at the cap."""
    series = series_of(np.full(length, 2.5))
    result = assert_paths_agree(compressor_class, series, 0.1)
    expected = -(-length // MAX_SEGMENT_LENGTH)
    assert result.num_segments == expected


def test_sz_escape_heavy_blocks_agree():
    """Wild dynamic range drives most points through the escape path."""
    rng = np.random.default_rng(7)
    values = rng.normal(0, 1, 513) * np.logspace(-8, 8, 513)
    series = series_of(values)
    for error_bound in (0.01, 0.1, 0.5):
        assert_paths_agree(SZ, series, error_bound)


def test_sz_zero_step_blocks_agree():
    """A zero in a block zeroes the quantization step (lattice disabled)."""
    rng = np.random.default_rng(8)
    values = rng.normal(10, 1, 400)
    values[::37] = 0.0
    series = series_of(values)
    for error_bound in (0.01, 0.1):
        assert_paths_agree(SZ, series, error_bound)


def test_streaming_extend_matches_per_point_push():
    """``extend`` runs on the chunked-scan kernels; ``push`` is scalar."""
    from repro.compression.streaming import OnlinePMC, OnlineSwing

    rng = np.random.default_rng(9)
    values = 20.0 + rng.normal(0, 1, 3000).cumsum() * 0.05
    for encoder_class in (OnlinePMC, OnlineSwing):
        bulk = encoder_class(0.05)
        bulk.extend(values)
        bulk.flush()
        pointwise = encoder_class(0.05)
        for value in values:
            pointwise.push(value)
        pointwise.flush()
        assert bulk.segments == pointwise.segments


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=400),
       st.sampled_from([0.01, 0.1, 0.5]))
def test_property_payloads_identical(values, error_bound):
    series = series_of(values)
    for compressor_class in COMPRESSORS:
        assert_paths_agree(compressor_class, series, error_bound)


def test_production_entry_points_do_not_import_the_reference():
    """The scalar loops stay out of every production import graph,
    including fitting and predicting a registry-built Arima and DLinear."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import numpy as np\n"
            "import repro.api, repro.cli, repro.compression\n"
            "import repro.forecasting, repro.server.app\n"
            "values = np.sin(np.arange(400) / 7.0)\n"
            "windows = np.stack([values[-60:-12], values[-48:]])\n"
            "for name, options in (('Arima', {}),\n"
            "                      ('DLinear', {'epochs': 1})):\n"
            "    model = repro.forecasting.make(\n"
            "        name, input_length=48, horizon=12, **options)\n"
            "    model.fit(values[:300], values[300:])\n"
            "    model.predict(windows)\n"
            "print('repro.reference' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
