"""SZ-style error-bounded lossy compression (after Liang et al., 2018).

This follows the pipeline the paper describes in Section 3.2: the series is
split into non-overlapping equal-sized blocks; per block SZ evaluates a set
of predictors — classic Lorenzo (previous value), a linear extrapolation of
the two previous values (the 1-D analogue of SZ's regression predictor),
and a mean-integrated predictor — and keeps the best fit; prediction
residuals are quantized on a linear scale into a small set of integer
codes; codes are entropy-coded with canonical Huffman; and the stream
finally runs through gzip.

Relative-bound handling: the paper's bound is pointwise-relative
(``|v̂ - v| <= eps * |v|``).  Each block quantizes with the step
``2 * eps * min |v|`` over the block, which satisfies the bound for every
point of the block; points that would need an out-of-range code (or any
point in a block whose minimum is zero, where the admissible step is zero)
are escaped and stored verbatim as float32.  The quantization staircase this
produces matches the constant-looking SZ output visible in the paper's
Figure 1.

Lattice-anchored quantization: every reconstructed value sits on the
lattice ``anchor + t * step`` with an integer coordinate ``t = rint((v -
anchor) / step)``; the anchor is the last escaped value (or the carry-in
reconstruction at a block boundary; the block mean for the MEAN
predictor).  Prediction then happens in exact integer lattice space — the
Lorenzo code stream is the first difference of ``t``, the linear stream
the second difference, and the mean stream ``t`` itself — so quantization
decouples from prediction and the decoder recovers ``t`` with exact
integer cumulative sums.  This makes the vectorized kernel and the scalar
per-point reference (``ReferenceSZ`` in ``repro/reference.py``) produce
bit-identical symbols, reconstructions, and payloads (pinned by the
equivalence suite); lattice coordinates clamp at ``±2**50`` on both paths
so first/second differences stay exact in float64.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression import timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.encoding import huffman, varint
from repro.datasets.timeseries import TimeSeries
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")
_BLOCK_META = struct.Struct("<Bff")  # predictor id (u8), step (f32), mean (f32)

DEFAULT_BLOCK_SIZE = 128

# Residual codes must stay small so the Huffman alphabet stays small.
_CODE_LIMIT = 1 << 15
_ESCAPE_SYMBOL = 0  # symbol space: 0 = escape, otherwise zigzag(code) + 1

# Lattice coordinates clamp here (identically on both paths) so that the
# first and second differences the predictors emit stay exactly
# representable in float64; anything this far off the anchor escapes via
# the code-limit / bound checks anyway.
_LATTICE_LIMIT = float(1 << 50)

LORENZO, LINEAR, MEAN = 0, 1, 2
_PREDICTORS = (LORENZO, LINEAR, MEAN)


def _zigzag(codes: np.ndarray) -> np.ndarray:
    """Vectorized ``varint.zigzag_encode`` over an int64 code array."""
    return (codes << 1) ^ (codes >> 63)


def _encode_block_kernel(block: np.ndarray, tolerance: np.ndarray,
                         step: float, anchor: float, predictor: int
                         ) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Vectorized lattice quantization of one block under one predictor.

    Returns ``(symbols, outliers, reconstructed)``.  The MEAN predictor has
    no sequential state (its anchor is the block mean for every point), so
    it encodes in one pass; LORENZO/LINEAR restart their anchor at each
    escape, so the loop advances escape-to-escape with everything between
    two escapes computed vectorized.
    """
    n = len(block)
    symbols = np.empty(n, dtype=np.int64)
    recon = np.empty(n, dtype=np.float64)

    if predictor == MEAN:
        if step > 0.0:
            t = np.rint((block - anchor) / step)
            np.maximum(t, -_LATTICE_LIMIT, out=t)
            np.minimum(t, _LATTICE_LIMIT, out=t)
        else:
            t = np.zeros(n)
        fitted = anchor + t * step
        bad = (np.abs(t) >= _CODE_LIMIT) | (np.abs(fitted - block) > tolerance)
        stored = block.astype(np.float32).astype(np.float64)
        codes = t.astype(np.int64)
        np.copyto(symbols, _zigzag(codes) + 1)
        symbols[bad] = _ESCAPE_SYMBOL
        np.copyto(recon, fitted)
        recon[bad] = stored[bad]
        return symbols, stored[bad].tolist(), recon

    outliers: list[float] = []
    base = anchor
    t_prev = 0.0
    d_prev = 0.0
    i = 0
    while i < n:
        seg = block[i:]
        if step > 0.0:
            t = np.rint((seg - base) / step)
            np.maximum(t, -_LATTICE_LIMIT, out=t)
            np.minimum(t, _LATTICE_LIMIT, out=t)
        else:
            t = np.zeros(n - i)
        fitted = base + t * step
        d = np.empty_like(t)
        d[0] = t[0] - t_prev
        np.subtract(t[1:], t[:-1], out=d[1:])
        if predictor == LINEAR:
            c = np.empty_like(d)
            c[0] = d[0] - d_prev
            np.subtract(d[1:], d[:-1], out=c[1:])
        else:
            c = d
        bad = (np.abs(c) >= _CODE_LIMIT) | (np.abs(fitted - seg) > tolerance[i:])
        j = int(bad.argmax())
        if not bad[j]:
            symbols[i:] = _zigzag(c.astype(np.int64)) + 1
            recon[i:] = fitted
            return symbols, outliers, recon
        if j:
            symbols[i:i + j] = _zigzag(c[:j].astype(np.int64)) + 1
            recon[i:i + j] = fitted[:j]
        stored = float(np.float32(seg[j]))
        symbols[i + j] = _ESCAPE_SYMBOL
        recon[i + j] = stored
        outliers.append(stored)
        base = stored
        t_prev = 0.0
        d_prev = 0.0
        i += j + 1
    return symbols, outliers, recon


def _block_cost_kernel(symbols: np.ndarray, num_outliers: int) -> int:
    """Bit cost used to pick the predictor (integer, so ties are exact)."""
    magnitudes = np.maximum(symbols, 1).astype(np.float64)
    # frexp's exponent of an exact positive integer is its bit length
    bit_lengths = np.frexp(magnitudes)[1]
    return 32 * num_outliers + len(symbols) + int(bit_lengths.sum())


@register_compressor("SZ", lossy=True, paper=True, grid=True,
                     description="blockwise predictive quantization (SZ 2)")
class SZ(Compressor):
    """Blockwise predictive quantization compressor in the style of SZ 2."""

    name = "SZ"
    is_lossy = True

    #: the per-block encoder, the predictor bit cost and the symbol coder;
    #: ``ReferenceSZ`` in ``repro/reference.py`` swaps in the scalar loops
    _encode_block = staticmethod(_encode_block_kernel)
    _block_cost = staticmethod(_block_cost_kernel)
    _encode_symbols = staticmethod(huffman.encode)

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 4:
            raise ValueError(f"block size must be at least 4, got {block_size}")
        self.block_size = block_size

    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
        self._check_inputs(series, error_bound)
        values = np.ascontiguousarray(series.values, dtype=np.float64)
        n = len(values)
        tolerance_all, steps, block_means = self._block_stats(values,
                                                              error_bound)

        symbol_parts: list = []
        outlier_parts: list[list[float]] = []
        recon_parts: list = []
        block_meta: list[tuple[int, float, float]] = []
        carry = 0.0  # reconstruction preceding the block (0.0 at the start)
        for index, begin in enumerate(range(0, n, self.block_size)):
            block = values[begin:begin + self.block_size]
            tolerance = tolerance_all[begin:begin + self.block_size]
            step = float(steps[index])
            mean = float(block_means[index])
            best = None
            for predictor in _PREDICTORS:
                anchor = mean if predictor == MEAN else carry
                encoded = self._encode_block(block, tolerance, step, anchor,
                                             predictor)
                cost = self._block_cost(encoded[0], len(encoded[1]))
                if best is None or cost < best[0]:
                    best = (cost, predictor, encoded)
            _, predictor, (symbols, outliers, recon) = best
            symbol_parts.append(symbols)
            outlier_parts.append(outliers)
            recon_parts.append(recon)
            block_meta.append((predictor, step, mean))
            carry = float(recon[-1])

        all_symbols = (np.concatenate(symbol_parts) if symbol_parts
                       else np.empty(0, dtype=np.int64))
        reconstructed = (np.concatenate(recon_parts) if recon_parts
                         else np.empty(0))
        all_outliers = [o for part in outlier_parts for o in part]

        payload = self._serialize(series, n, block_meta, all_symbols,
                                  all_outliers)
        compressed = gzip_bytes(payload)
        # The encoder's lattice reconstruction is bit-identical to a decode
        # of the payload (asserted by the equivalence suite), so the
        # round trip through ``decompress`` is skipped.
        decompressed = TimeSeries(reconstructed, start=series.start,
                                  interval=series.interval,
                                  name="decompressed")
        # SZ has no explicit segments; its quantization staircase produces
        # runs of constant output (visible in the paper's Figure 1), so the
        # Figure 3 "segment" count is the number of such runs.
        changes = int(np.count_nonzero(np.diff(reconstructed))) + 1
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            original=series,
            decompressed=decompressed,
            payload=payload,
            compressed=compressed,
            num_segments=changes,
        ))

    def _block_stats(self, values: np.ndarray, error_bound: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pointwise tolerances plus every block's float32 step and mean.

        Full blocks reshape into a matrix whose row-wise reductions are
        bit-identical to per-block reductions (same contiguous layout,
        same pairwise summation), so the payloads stay pinned to the
        per-block reference.
        """
        n = len(values)
        abs_values = np.abs(values)
        num_full = n // self.block_size
        split = num_full * self.block_size
        mins = np.empty((n + self.block_size - 1) // self.block_size)
        means = np.empty_like(mins)
        if num_full:
            shape = (num_full, self.block_size)
            mins[:num_full] = abs_values[:split].reshape(shape).min(axis=1)
            means[:num_full] = values[:split].reshape(shape).mean(axis=1)
        if split < n:
            mins[-1] = abs_values[split:].min()
            means[-1] = values[split:].mean()
        return (error_bound * abs_values,
                (2.0 * error_bound * mins).astype(np.float32),
                means.astype(np.float32))

    def _serialize(self, series: TimeSeries, n: int,
                   block_meta: list[tuple[int, float, float]],
                   symbols, outliers: list[float]) -> bytes:
        parts = [timestamps.encode_header(series.start, series.interval),
                 _COUNT.pack(n),
                 varint.encode_unsigned(self.block_size),
                 _COUNT.pack(len(block_meta))]
        parts += [_BLOCK_META.pack(predictor, step, mean)
                  for predictor, step, mean in block_meta]
        encoded_symbols = self._encode_symbols(symbols)
        parts.append(varint.encode_unsigned(len(encoded_symbols)))
        parts.append(encoded_symbols)
        parts.append(_COUNT.pack(len(outliers)))
        parts.append(np.asarray(outliers, dtype="<f4").tobytes())
        return b"".join(parts)

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (n,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        block_size, offset = varint.decode_unsigned(payload, offset)
        (n_blocks,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        block_meta = []
        for _ in range(n_blocks):
            block_meta.append(_BLOCK_META.unpack_from(payload, offset))
            offset += _BLOCK_META.size
        blob_length, offset = varint.decode_unsigned(payload, offset)
        symbols = np.asarray(huffman.decode(payload[offset:offset + blob_length]),
                             dtype=np.int64)
        offset += blob_length
        (n_outliers,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        outliers = np.frombuffer(payload, dtype="<f4", count=n_outliers,
                                 offset=offset).astype(np.float64)

        values = np.empty(n, dtype=np.float64)
        carry = 0.0
        position = 0
        outlier_position = 0
        for block_index in range(n_blocks):
            predictor, step, mean = block_meta[block_index]
            block_n = min(block_size, n - position)
            sym = symbols[position:position + block_n]
            escaped = sym == _ESCAPE_SYMBOL
            raw = sym - 1
            codes = np.where(raw & 1 == 0, raw >> 1, -((raw + 1) >> 1))
            num_escaped = int(np.count_nonzero(escaped))
            block_outliers = outliers[outlier_position:
                                      outlier_position + num_escaped]
            recon = self._decode_block(predictor, step, mean, carry, codes,
                                       escaped, block_outliers)
            values[position:position + block_n] = recon
            carry = float(recon[-1])
            position += block_n
            outlier_position += num_escaped
        return TimeSeries(values, start=start, interval=interval,
                          name="decompressed")

    @staticmethod
    def _decode_block(predictor: int, step: float, mean: float, carry: float,
                      codes: np.ndarray, escaped: np.ndarray,
                      block_outliers: np.ndarray) -> np.ndarray:
        """Rebuild one block's reconstruction from its code stream.

        Lattice coordinates come back via exact integer cumulative sums, so
        ``anchor + t * step`` reproduces the encoder's reconstruction bit
        for bit.
        """
        block_n = len(codes)
        if predictor == MEAN:
            recon = mean + codes * step
            recon[escaped] = block_outliers
            return recon
        recon = np.empty(block_n, dtype=np.float64)
        escape_positions = np.flatnonzero(escaped)
        base = carry
        run_start = 0
        out_index = 0
        for stop in list(escape_positions) + [block_n]:
            if stop > run_start:
                run_codes = codes[run_start:stop]
                t = np.cumsum(run_codes)
                if predictor == LINEAR:
                    t = np.cumsum(t)
                recon[run_start:stop] = base + t * step
            if stop < block_n:
                stored = float(block_outliers[out_index])
                out_index += 1
                recon[stop] = stored
                base = stored
            run_start = stop + 1
        return recon
