"""LFZip-style predictive coding with an NLMS predictor.

LFZip (Chandak et al., see PAPERS.md) compresses a float stream by
predicting each value from its reconstructed past with a normalized
least-mean-squares (NLMS) filter and uniformly quantizing the residual
to the error budget.  This implementation keeps the repo's SZ framing —
fixed-size blocks, a per-block float32 lattice step of ``2 * eps *
min|v|``, escape symbol 0 carrying a verbatim float32, zigzag+1 residual
codes through the shared Huffman coder — and swaps SZ's fixed predictors
for an adaptive one:

* Within a block the NLMS weights are **frozen** and prediction runs in
  lattice space: ``p_i = rint(sum_j w_j * t_(i-j))`` over the lattice
  coordinates of the reconstruction, with the history reset at block
  starts and escapes.  Because the lattice coordinates of an
  escape-free run are known up front (``t = rint((v - base) / step)``
  against a fixed base), the whole run encodes vectorized — shifted
  dot products instead of a per-point recursion — which is what the
  kernel does.  The scalar reference (``ReferenceLFZip`` in
  ``repro/reference.py``) performs the identical float64 operations
  point by point and is pinned byte-identical.

* Between blocks both encoder and decoder replay the **same
  deterministic NLMS sweep** over the block's lattice sequence, so the
  weights adapt without ever being serialized.

The online variant (``repro.compression.streaming.OnlineLFZip``) feeds
the same block pipeline from a push buffer, so a live ``/v1/stream``
session reconstructs byte-identically to the batch compressor.
"""

from __future__ import annotations

import math
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
_STEP = struct.Struct("<f")

DEFAULT_BLOCK_SIZE = 128

#: NLMS filter order and normalized step size (``update_weights`` unrolls
#: the four taps)
ORDER = 4
MU = 0.5
INIT_WEIGHTS = (1.0, 0.0, 0.0, 0.0)

# Residual codes must stay small so the Huffman alphabet stays small.
_CODE_LIMIT = 1 << 15
_ESCAPE_SYMBOL = 0  # symbol space: 0 = escape, otherwise zigzag(code) + 1

# Lattice coordinates clamp here (identically on both paths); see sz.py.
_LATTICE_LIMIT = float(1 << 50)


def _zigzag(codes: np.ndarray) -> np.ndarray:
    return (codes << 1) ^ (codes >> 63)


def block_step(block: np.ndarray, error_bound: float) -> float:
    """Float32 lattice step of one block: ``2 * eps * min|v|``."""
    return float(np.float32(
        2.0 * error_bound * float(np.min(np.abs(block)))))


def _predictions(t: np.ndarray, weights) -> np.ndarray:
    """Vectorized in-run NLMS predictions over known lattice coordinates.

    Element ``i`` accumulates ``w_0 * t_(i-1) + w_1 * t_(i-2) + ...`` in
    exactly the scalar loop's addition order; history positions before
    the run start are zeros there and skipped adds here — the same
    float64 values either way.
    """
    pred = np.zeros(len(t))
    for j, w in enumerate(weights, start=1):
        pred[j:] += w * t[:-j]
    return pred


def encode_block_kernel(block: np.ndarray, tolerance: np.ndarray,
                        step: float, carry: float, weights
                        ) -> tuple[np.ndarray, list[float], np.ndarray,
                                   np.ndarray, np.ndarray]:
    """Vectorized escape-to-escape encoding of one block.

    Returns ``(symbols, outliers, recon, t_values, escaped)``; the last
    two feed the deterministic weight-update sweep.
    """
    n = len(block)
    symbols = np.empty(n, dtype=np.int64)
    recon = np.empty(n, dtype=np.float64)
    t_values = np.zeros(n, dtype=np.float64)
    escaped = np.zeros(n, dtype=bool)
    outliers: list[float] = []
    base = carry
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
        codes = t - np.rint(_predictions(t, weights))
        bad = ((np.abs(codes) >= _CODE_LIMIT)
               | (np.abs(fitted - seg) > tolerance[i:]))
        j = int(bad.argmax())
        if not bad[j]:
            symbols[i:] = _zigzag(codes.astype(np.int64)) + 1
            recon[i:] = fitted
            t_values[i:] = t
            return symbols, outliers, recon, t_values, escaped
        if j:
            symbols[i:i + j] = _zigzag(codes[:j].astype(np.int64)) + 1
            recon[i:i + j] = fitted[:j]
            t_values[i:i + j] = t[:j]
        stored = float(np.float32(seg[j]))
        symbols[i + j] = _ESCAPE_SYMBOL
        recon[i + j] = stored
        escaped[i + j] = True
        outliers.append(stored)
        base = stored
        i += j + 1
    return symbols, outliers, recon, t_values, escaped


def update_weights(weights, t_values, escaped) -> tuple[float, ...]:
    """Deterministic per-block NLMS sweep, replayed by the decoder.

    One normalized gradient step per non-escaped point, over the lattice
    coordinates both sides hold after the block is decoded.  Escapes
    reset the history (their lattice frame changed).  The sweep is plain
    sequential float64, so encoder and decoder weights stay bitwise
    equal; a non-finite result (degenerate inputs) resets to the
    initial filter.

    The ``ORDER`` taps and history slots are unrolled into locals, but
    every sum keeps the list loop's order (``0.0 + w0*h0 + w1*h1 + ...``
    left to right, ``1.0 + h0*h0 + ...``), so the weights carry the same
    bits as the loop over lists, the twin
    ``repro.reference.lfzip_update_weights`` that they are pinned to.
    """
    w0, w1, w2, w3 = weights
    h0 = h1 = h2 = h3 = 0.0
    for t, escape in zip(np.asarray(t_values, dtype=np.float64).tolist(),
                         np.asarray(escaped, dtype=bool).tolist()):
        if escape:
            h0 = h1 = h2 = h3 = 0.0
            continue
        error = t - (0.0 + w0 * h0 + w1 * h1 + w2 * h2 + w3 * h3)
        gain = MU * error / (1.0 + h0 * h0 + h1 * h1 + h2 * h2 + h3 * h3)
        w0 += gain * h0
        w1 += gain * h1
        w2 += gain * h2
        w3 += gain * h3
        h0, h1, h2, h3 = t, h0, h1, h2
    w = (w0, w1, w2, w3)
    if not all(math.isfinite(x) for x in w):
        return INIT_WEIGHTS
    return w


def decode_block(step: float, carry: float, weights, symbols: np.ndarray,
                 outliers: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """Rebuild one block's reconstruction from its code stream.

    Returns ``(recon, t_values, escaped)`` so the caller can replay the
    weight sweep.  Codes that drive a prediction to inf or NaN (no
    encoder writes them) raise the codec's corrupt-payload
    ``ValueError``.  The prediction recursion is sequential here — the
    decoder needs ``t_(i-1)`` before ``t_i`` — but performs the exact
    float64 operations of the encoder, so ``base + t * step`` lands on
    the same bits.
    """
    n = len(symbols)
    recon = np.empty(n, dtype=np.float64)
    t_values = np.zeros(n, dtype=np.float64)
    escaped = symbols == _ESCAPE_SYMBOL
    raw = symbols - 1
    codes = np.where(raw & 1 == 0, raw >> 1, -((raw + 1) >> 1))
    base = carry
    history = [0.0] * ORDER
    out_index = 0
    for i in range(n):
        if escaped[i]:
            stored = float(outliers[out_index])
            out_index += 1
            recon[i] = stored
            base = stored
            history = [0.0] * ORDER
            continue
        prediction = 0.0
        for j in range(ORDER):
            prediction += weights[j] * history[j]
        if not math.isfinite(prediction):
            # only codes no encoder writes drive the lattice this far
            raise ValueError(f"corrupt LFZip payload: non-finite "
                             f"prediction at value {i} of a block")
        t = float(codes[i]) + round(prediction)
        recon[i] = base + t * step
        t_values[i] = t
        history = [t] + history[:-1]
    return recon, t_values, escaped


@register_compressor("LFZIP", lossy=True, grid=True, streaming="OnlineLFZip",
                     description="NLMS predictive coding (LFZip)")
class LFZip(Compressor):
    """Blockwise NLMS predictive coding with a relative error bound."""

    name = "LFZIP"
    is_lossy = True

    #: the per-block encoder and the symbol coder;
    #: ``ReferenceLFZip`` in ``repro/reference.py`` swaps in the scalar loops
    _encode_block = staticmethod(encode_block_kernel)
    _encode_symbols = staticmethod(huffman.encode)

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 4:
            raise ValueError(f"block size must be at least 4, got {block_size}")
        self.block_size = block_size

    def compress(self, series: TimeSeries, error_bound: float
                 ) -> CompressionResult:
        self._check_inputs(series, error_bound)
        values = np.ascontiguousarray(series.values, dtype=np.float64)
        n = len(values)

        symbol_parts: list = []
        outlier_parts: list[list[float]] = []
        recon_parts: list = []
        steps: list[float] = []
        weights = INIT_WEIGHTS
        carry = 0.0
        for begin in range(0, n, self.block_size):
            block = values[begin:begin + self.block_size]
            tolerance = error_bound * np.abs(block)
            step = block_step(block, error_bound)
            symbols, outliers, recon, t_values, escaped = self._encode_block(
                block, tolerance, step, carry, weights)
            symbol_parts.append(symbols)
            outlier_parts.append(outliers)
            recon_parts.append(recon)
            steps.append(step)
            weights = update_weights(weights, t_values, escaped)
            carry = float(recon[-1])

        all_symbols = (np.concatenate(symbol_parts) if symbol_parts
                       else np.empty(0, dtype=np.int64))
        reconstructed = (np.concatenate(recon_parts) if recon_parts
                         else np.empty(0))
        all_outliers = [o for part in outlier_parts for o in part]

        compressed = gzip_bytes(
            self._serialize(series, n, steps, all_symbols, all_outliers))
        decompressed = TimeSeries(reconstructed, start=series.start,
                                  interval=series.interval,
                                  name="decompressed")
        changes = int(np.count_nonzero(np.diff(reconstructed))) + 1
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            decompressed=decompressed,
            compressed=compressed,
            num_segments=changes,
        ))

    def _serialize(self, series: TimeSeries, n: int, steps: list[float],
                   symbols, outliers: list[float]) -> bytes:
        parts = [timestamps.encode_header(series.start, series.interval),
                 _COUNT.pack(n),
                 varint.encode_unsigned(self.block_size),
                 _COUNT.pack(len(steps))]
        parts += [_STEP.pack(step) for step in steps]
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
        # a corrupt header must not size an allocation: the counts have
        # to agree with each other and with the bytes that remain
        if block_size < 1 or n_blocks != -(-n // block_size):
            raise ValueError(f"corrupt LFZip header: {n} values in "
                             f"{n_blocks} blocks of {block_size}")
        if n_blocks * _STEP.size > len(payload) - offset:
            raise ValueError(f"corrupt LFZip payload: {n_blocks} block "
                             f"steps overrun {len(payload) - offset} bytes")
        steps = []
        for _ in range(n_blocks):
            steps.append(_STEP.unpack_from(payload, offset)[0])
            offset += _STEP.size
        blob_length, offset = varint.decode_unsigned(payload, offset)
        symbols = np.asarray(
            huffman.decode(payload[offset:offset + blob_length]),
            dtype=np.int64)
        if len(symbols) != n:
            raise ValueError(f"corrupt LFZip payload: {len(symbols)} "
                             f"symbols for {n} values")
        offset += blob_length
        (n_outliers,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        outliers = np.frombuffer(payload, dtype="<f4", count=n_outliers,
                                 offset=offset).astype(np.float64)

        values = np.empty(n, dtype=np.float64)
        weights = INIT_WEIGHTS
        carry = 0.0
        position = 0
        outlier_position = 0
        for block_index in range(n_blocks):
            block_n = min(block_size, n - position)
            block_symbols = symbols[position:position + block_n]
            num_escaped = int(np.count_nonzero(
                block_symbols == _ESCAPE_SYMBOL))
            block_outliers = outliers[outlier_position:
                                      outlier_position + num_escaped]
            recon, t_values, escaped = decode_block(
                float(steps[block_index]), carry, weights, block_symbols,
                block_outliers)
            values[position:position + block_n] = recon
            weights = update_weights(weights, t_values, escaped)
            carry = float(recon[-1])
            position += block_n
            outlier_position += num_escaped
        return TimeSeries(values, start=start, interval=interval,
                          name="decompressed")
