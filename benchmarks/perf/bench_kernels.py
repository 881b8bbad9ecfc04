"""Layer-by-layer micro-benchmarks for the compression kernels.

``repro-eval bench`` measures the end-to-end compressor paths, whose
speedup ratios are diluted by the shared gzip/serialization stages (both
paths pay them identically).  This harness isolates the layers the
kernels actually replaced:

- PMC / Swing segmentation (``kernels.pmc_chase`` / ``kernels.swing_chase``
  vs the per-point loops of ``repro.reference``) without serialization or
  gzip,
- the SZ block codec (``sz._encode_block_kernel`` vs
  ``reference.sz_encode_block`` over every block and predictor),
- Huffman pack/unpack (``huffman.encode``/``decode`` vs
  ``reference.huffman_encode``/``huffman_decode`` on a realistic SZ
  symbol stream).

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py --length 20000
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _row(label: str, kernel_s: float, scalar_s: float) -> None:
    print(f"{label:34s} kernel {kernel_s * 1e3:9.2f}ms  "
          f"scalar {scalar_s * 1e3:9.2f}ms  "
          f"speedup {scalar_s / kernel_s:6.2f}x")


def bench_segmentation(values: np.ndarray, error_bound: float,
                       repeats: int) -> None:
    from repro import reference
    from repro.compression import kernels, timestamps

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
    from repro.compression.sz import SZ
    from repro.datasets.timeseries import TimeSeries
    from repro.encoding import huffman

    series = TimeSeries(values, start=0, interval=60, name="bench")
    # a realistic symbol stream: what SZ actually entropy-codes
    result = SZ().compress(series, error_bound)
    symbols = np.asarray(
        huffman.decode(_extract_huffman_stream(result.payload)),
        dtype=np.int64)
    encoded = huffman.encode(symbols)
    _row(f"Huffman encode     eps={error_bound:g}",
         best_of(lambda: huffman.encode(symbols), repeats),
         best_of(lambda: reference.huffman_encode(symbols.tolist()),
                 repeats))
    _row(f"Huffman decode     eps={error_bound:g}",
         best_of(lambda: huffman.decode(encoded), repeats),
         best_of(lambda: reference.huffman_decode(encoded), repeats))


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

    values = np.ascontiguousarray(
        synthetic.ettm1(length=args.length).target_series.values)
    print(f"ETTm1-like synthetic, n={args.length}, best of {args.repeats}")
    for error_bound in args.error_bounds:
        bench_segmentation(values, error_bound, args.repeats)
        bench_sz_blocks(values, error_bound, args.repeats)
        bench_huffman(values, error_bound, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
