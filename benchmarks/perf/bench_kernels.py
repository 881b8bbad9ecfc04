"""Layer-by-layer micro-benchmarks for the compression kernels.

``repro-eval bench`` measures the end-to-end compressor paths, whose
speedup ratios are diluted by the shared gzip/serialization stages (both
paths pay them identically).  This harness isolates the layers the
kernels actually replaced:

- PMC / Swing / CAMEO segmentation (``kernels.pmc_chase`` /
  ``swing_chase`` / ``cameo_chase`` vs the per-point loops of
  ``repro.reference``) without serialization or gzip; CAMEO's segments
  are asserted equal to its reference's,
- the SZ block codec (``sz._encode_block_kernel`` vs
  ``reference.sz_encode_block`` over every block and predictor),
- Huffman pack/unpack (``huffman.encode``/``decode`` vs
  ``reference.huffman_encode``/``huffman_decode`` on a realistic SZ
  symbol stream),
- the feature catalogue's hot characteristics on the series' test split
  (``hurst``, ``holt_parameters`` and ``flat_spots`` vs their
  ``repro.reference`` twins; the KL shift pair from one shared
  ``shift.max_shift`` vs one series per name), asserting equal outputs.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py --length 20000
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench import best_of


def _row(label: str, kernel_s: float, scalar_s: float) -> None:
    print(f"{label:34s} kernel {kernel_s * 1e3:9.2f}ms  "
          f"scalar {scalar_s * 1e3:9.2f}ms  "
          f"speedup {scalar_s / kernel_s:6.2f}x")


def bench_segmentation(values: np.ndarray, error_bound: float,
                       repeats: int) -> None:
    from repro import reference
    from repro.compression import Cameo, kernels, timestamps
    from repro.compression.cameo import ACF_WEIGHT

    max_length = timestamps.MAX_SEGMENT_LENGTH
    _row(f"PMC segmentation   eps={error_bound:g}",
         best_of(lambda: kernels.pmc_chase(values, error_bound, max_length),
                 repeats),
         best_of(lambda: reference.ReferencePMC._segments(values,
                                                          error_bound),
                 repeats))
    swing = reference.ReferenceSwing()
    _row(f"Swing segmentation eps={error_bound:g}",
         best_of(lambda: kernels.swing_chase(values, error_bound, max_length),
                 repeats),
         best_of(lambda: swing._segments(values, error_bound), repeats))
    cameo = reference.ReferenceCameo()
    for kernel_part, scalar_part in zip(
            Cameo()._segments(values, error_bound),
            cameo._segments(values, error_bound)):
        assert np.array_equal(kernel_part, scalar_part), "CAMEO segments"
    _row(f"CAMEO segmentation eps={error_bound:g}",
         best_of(lambda: kernels.cameo_chase(values, error_bound, ACF_WEIGHT,
                                             max_length), repeats),
         best_of(lambda: cameo._segments(values, error_bound), repeats))


def bench_sz_blocks(values: np.ndarray, error_bound: float,
                    repeats: int) -> None:
    from repro import reference
    from repro.compression import sz

    def run(encode_block) -> None:
        block_size = sz.DEFAULT_BLOCK_SIZE
        carry = 0.0
        for begin in range(0, len(values), block_size):
            block = values[begin:begin + block_size]
            tolerance = error_bound * np.abs(block)
            step = float(np.float32(
                2.0 * error_bound * float(np.min(np.abs(block)))))
            mean = float(np.float32(np.mean(block)))
            for predictor in sz._PREDICTORS:
                anchor = mean if predictor == sz.MEAN else carry
                _, _, recon = encode_block(block, tolerance, step, anchor,
                                           predictor)
            carry = float(recon[-1])

    _row(f"SZ block codec     eps={error_bound:g}",
         best_of(lambda: run(sz._encode_block_kernel), repeats),
         best_of(lambda: run(reference.sz_encode_block), repeats))


def bench_huffman(values: np.ndarray, error_bound: float,
                  repeats: int) -> None:
    from repro import reference
    from repro.compression.base import gunzip_bytes
    from repro.compression.sz import SZ
    from repro.datasets.timeseries import TimeSeries
    from repro.encoding import huffman

    series = TimeSeries(values, start=0, interval=60, name="bench")
    # a realistic symbol stream: what SZ actually entropy-codes
    result = SZ().compress(series, error_bound)
    symbols = np.asarray(
        huffman.decode(
            _extract_huffman_stream(gunzip_bytes(result.compressed))),
        dtype=np.int64)
    encoded = huffman.encode(symbols)
    _row(f"Huffman encode     eps={error_bound:g}",
         best_of(lambda: huffman.encode(symbols), repeats),
         best_of(lambda: reference.huffman_encode(symbols.tolist()),
                 repeats))
    _row(f"Huffman decode     eps={error_bound:g}",
         best_of(lambda: huffman.decode(encoded), repeats),
         best_of(lambda: reference.huffman_decode(encoded), repeats))


def bench_features(dataset, repeats: int) -> None:
    from repro import reference
    from repro.datasets.splits import split
    from repro.features import shift, smoothing, structure

    values = split(dataset).test.target_series.values
    for label, kernel, scalar in [
            ("hurst", structure.hurst, reference.hurst),
            ("holt_parameters", smoothing.holt_parameters,
             reference.holt_parameters),
            ("flat_spots", structure.flat_spots, reference.flat_spots)]:
        assert np.array_equal(kernel(values), scalar(values),
                              equal_nan=True), label
        _row(f"{label:18s} n={len(values)}",
             best_of(lambda: kernel(values), repeats),
             best_of(lambda: scalar(values), repeats))
    # compute_all's default shift window
    width = int(min(max(dataset.seasonal_period, 10), 256))

    def per_name() -> tuple[float, float]:
        return (shift.max_kl_shift(values, width),
                shift.time_kl_shift(values, width))

    assert np.array_equal(shift.max_shift(values, width, "kl"), per_name(),
                          equal_nan=True)
    _row(f"KL shift pair      n={len(values)}",
         best_of(lambda: shift.max_shift(values, width, "kl"), repeats),
         best_of(per_name, repeats))


def _extract_huffman_stream(payload: bytes) -> bytes:
    """Slice the Huffman-coded symbol stream out of an SZ payload."""
    import struct

    from repro.compression import timestamps
    from repro.compression.sz import _BLOCK_META
    from repro.encoding import varint

    _, _, offset = timestamps.decode_header(payload)
    offset += 4  # <I series length
    _, offset = varint.decode_unsigned(payload, offset)  # block size
    (num_blocks,) = struct.unpack_from("<I", payload, offset)
    offset += 4 + num_blocks * _BLOCK_META.size
    symbol_bytes, offset = varint.decode_unsigned(payload, offset)
    return payload[offset:offset + symbol_bytes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--error-bounds", type=float, nargs="+",
                        default=[0.01, 0.05, 0.1])
    args = parser.parse_args(argv)

    from repro.datasets import synthetic

    dataset = synthetic.ettm1(length=args.length)
    values = np.ascontiguousarray(dataset.target_series.values)
    print(f"ETTm1-like synthetic, n={args.length}, best of {args.repeats}")
    for error_bound in args.error_bounds:
        bench_segmentation(values, error_bound, args.repeats)
        bench_sz_blocks(values, error_bound, args.repeats)
        bench_huffman(values, error_bound, args.repeats)
    bench_features(dataset, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
