"""Scalar reference implementations of the vectorized codecs.

Every grid codec has one production path: the array kernels in
``repro.compression.kernels`` and in the codec modules themselves.  The
per-point loops those kernels replaced live here, as the executable
specification the kernels are pinned to.  Each reference class subclasses
its production codec and overrides only the hook that differs —
segmentation for PMC, Swing and CAMEO; block statistics, block encoding,
block cost and Huffman packing for SZ and LFZip — so its ``compress``
returns the same :class:`~repro.compression.base.CompressionResult`
(payload, gzip bytes, reconstruction) through the slow path.  The
equivalence suites (``tests/compression/test_kernels.py``,
``test_cameo.py``, ``test_lfzip.py``, ``tests/encoding/test_huffman.py``)
assert byte identity, and ``repro-eval bench`` times each codec against
its reference.

The classes are not registered, so registry queries, CLI choices and
schema enums only ever see the production codecs.  Tests and benchmarks
are the only importers; ``make_compressor("PMC")`` builds the reference
twin of a registered codec by name.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.compression import lfzip, sz
from repro.compression.base import Compressor
from repro.compression.cameo import Cameo
from repro.compression.lfzip import LFZip
from repro.compression.pmc import PMC, _store_float32
from repro.compression.swing import Swing
from repro.compression.sz import SZ
from repro.compression.timestamps import MAX_SEGMENT_LENGTH
from repro.encoding import huffman, varint


# --- Huffman: the per-bit loops on every input


def huffman_encode(symbols: Sequence[int]) -> bytes:
    """:func:`repro.encoding.huffman.encode` through ``BitWriter`` only."""
    header, codes = huffman._header(symbols)
    return header + huffman._pack_bits(symbols, codes)


def huffman_decode(data: bytes) -> list[int]:
    """:func:`repro.encoding.huffman.decode` through ``BitReader`` only."""
    count, codes, offset = huffman._read_header(data)
    return huffman._unpack_bits(data[offset:], codes, count)


# --- segment filters


class ReferencePMC(PMC):
    """PMC-Mean with the per-point window loop."""

    @staticmethod
    def _segments(values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float]]:
        """Per-point segmentation loop."""
        lengths: list[int] = []
        means: list[float] = []

        window_start = 0
        base = 0.0  # prefix sum at the window start
        total = 0.0  # running prefix sum over the whole array (never reset)
        lo = -math.inf  # greatest lower bound imposed by any window point
        hi = math.inf  # least upper bound

        def close(end: int) -> None:
            """Emit the window [window_start, end) as one mean segment."""
            length = end - window_start
            mean = (total - base) / length
            lengths.append(length)
            means.append(_store_float32(mean, lo, hi))

        for i, value in enumerate(values):
            allowed = error_bound * abs(value)
            new_lo = max(lo, value - allowed)
            new_hi = min(hi, value + allowed)
            new_total = total + value
            count = i - window_start + 1
            # The close predicate compares the window *sum* against the
            # count-scaled bounds (one multiply instead of a divide) —
            # the exact form the kernels and the streaming encoder use.
            diff = new_total - base
            window_full = count > MAX_SEGMENT_LENGTH
            if window_full or diff < new_lo * count or diff > new_hi * count:
                close(i)
                window_start = i
                base = total
                lo = value - allowed
                hi = value + allowed
            else:
                lo, hi = new_lo, new_hi
            total = new_total
        close(len(values))
        return lengths, means


class ReferenceSwing(Swing):
    """Swing filter with the per-point cone loop."""

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float], list[float]]:
        """Per-point segmentation loop."""
        segments: list[tuple[int, float, float]] = []

        anchor_index = 0
        anchor_value = float(values[0])
        slope_lo = -math.inf
        slope_hi = math.inf

        for i in range(1, len(values)):
            value = float(values[i])
            allowed = error_bound * abs(value)
            run = i - anchor_index
            new_lo = max(slope_lo, (value - allowed - anchor_value) / run)
            new_hi = min(slope_hi, (value + allowed - anchor_value) / run)
            window_full = run + 1 > MAX_SEGMENT_LENGTH
            if window_full or new_lo > new_hi:
                self._fit(values, error_bound, anchor_index, i,
                          slope_lo, slope_hi, segments)
                anchor_index = i
                anchor_value = value
                slope_lo = -math.inf
                slope_hi = math.inf
            else:
                slope_lo, slope_hi = new_lo, new_hi
        self._fit(values, error_bound, anchor_index, len(values),
                  slope_lo, slope_hi, segments)
        return ([s[0] for s in segments], [s[1] for s in segments],
                [s[2] for s in segments])


class ReferenceCameo(Cameo):
    """CAMEO with the per-point cone and aggregate-budget loop."""

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[list[int], list[float], list[float]]:
        """Per-point segmentation loop."""
        segments: list[tuple[int, float, float]] = []
        weight = self.acf_weight * error_bound

        anchor_index = 0
        anchor_value = float(values[0])
        slope_lo = -math.inf
        slope_hi = math.inf
        sum_dev = 0.0
        sum_mass = 0.0
        sum_run = 0.0

        for i in range(1, len(values)):
            value = float(values[i])
            allowed = error_bound * abs(value)
            run = i - anchor_index
            # the same float64 folds, in the same order, as the kernel's
            # seeded cumsums
            new_dev = sum_dev + (value - anchor_value)
            new_mass = sum_mass + abs(value)
            new_run = sum_run + run
            budget = weight * new_mass
            new_lo = max(slope_lo, (value - allowed - anchor_value) / run,
                         (new_dev - budget) / new_run)
            new_hi = min(slope_hi, (value + allowed - anchor_value) / run,
                         (new_dev + budget) / new_run)
            window_full = run + 1 > MAX_SEGMENT_LENGTH
            if window_full or new_lo > new_hi:
                self._fit(values, error_bound, anchor_index, i,
                          slope_lo, slope_hi, segments)
                anchor_index = i
                anchor_value = value
                slope_lo = -math.inf
                slope_hi = math.inf
                sum_dev = sum_mass = sum_run = 0.0
            else:
                slope_lo, slope_hi = new_lo, new_hi
                sum_dev, sum_mass, sum_run = new_dev, new_mass, new_run
        self._fit(values, error_bound, anchor_index, len(values),
                  slope_lo, slope_hi, segments)
        return ([s[0] for s in segments], [s[1] for s in segments],
                [s[2] for s in segments])


# --- SZ: per-point lattice quantization


def sz_encode_block(block: np.ndarray, tolerance: np.ndarray,
                    step: float, anchor: float, predictor: int
                    ) -> tuple[list[int], list[float], list[float]]:
    """Per-point reference with the same lattice semantics as the kernel."""
    symbols: list[int] = []
    outliers: list[float] = []
    recon: list[float] = []
    limit = int(sz._LATTICE_LIMIT)
    mean_mode = predictor == sz.MEAN
    base = anchor
    t_prev = 0
    d_prev = 0
    for k in range(len(block)):
        value = float(block[k])
        if step > 0.0:
            # clamp before rounding: identical to the kernel's rint + clip
            # for every finite quotient, and it keeps round() finite
            quotient = (value - base) / step
            if quotient > sz._LATTICE_LIMIT:
                quotient = sz._LATTICE_LIMIT
            elif quotient < -sz._LATTICE_LIMIT:
                quotient = -sz._LATTICE_LIMIT
            t = round(quotient)  # round-half-even, same as np.rint
            t = min(max(t, -limit), limit)
        else:
            t = 0
        fitted = base + t * step
        if mean_mode:
            code = t
        elif predictor == sz.LINEAR:
            code = (t - t_prev) - d_prev
        else:
            code = t - t_prev
        if (abs(code) < sz._CODE_LIMIT
                and abs(fitted - value) <= tolerance[k]):
            symbols.append(varint.zigzag_encode(code) + 1)
            recon.append(fitted)
            d_prev = t - t_prev
            t_prev = t
        else:
            stored = float(np.float32(value))
            symbols.append(sz._ESCAPE_SYMBOL)
            recon.append(stored)
            outliers.append(stored)
            if not mean_mode:
                base = stored
            t_prev = 0
            d_prev = 0
    return symbols, outliers, recon


def sz_block_cost(symbols: list[int], num_outliers: int) -> int:
    """Reference bit cost — the same integer as ``sz._block_cost_kernel``."""
    bits = 32 * num_outliers + len(symbols)
    for symbol in symbols:
        bits += max(symbol, 1).bit_length()
    return bits


class ReferenceSZ(SZ):
    """SZ with per-block statistics and the per-point block encoder."""

    _encode_block = staticmethod(sz_encode_block)
    _block_cost = staticmethod(sz_block_cost)
    _encode_symbols = staticmethod(huffman_encode)

    def _block_stats(self, values: np.ndarray, error_bound: float
                     ) -> tuple[np.ndarray, list[float], list[float]]:
        """Each block's float32 step and mean, one block at a time."""
        steps: list[float] = []
        means: list[float] = []
        for begin in range(0, len(values), self.block_size):
            block = values[begin:begin + self.block_size]
            steps.append(float(np.float32(
                2.0 * error_bound * float(np.min(np.abs(block))))))
            means.append(float(np.float32(np.mean(block))))
        return error_bound * np.abs(values), steps, means


# --- LFZip: per-point NLMS prediction


def lfzip_encode_block(block: np.ndarray, tolerance: np.ndarray,
                       step: float, carry: float, weights
                       ) -> tuple[list[int], list[float], list[float],
                                  list[float], list[bool]]:
    """Per-point reference with the same lattice semantics as the kernel."""
    symbols: list[int] = []
    outliers: list[float] = []
    recon: list[float] = []
    t_values: list[float] = []
    escaped: list[bool] = []
    limit = int(lfzip._LATTICE_LIMIT)
    base = carry
    history = [0.0] * lfzip.ORDER
    for k in range(len(block)):
        value = float(block[k])
        if step > 0.0:
            quotient = (value - base) / step
            if quotient > lfzip._LATTICE_LIMIT:
                quotient = lfzip._LATTICE_LIMIT
            elif quotient < -lfzip._LATTICE_LIMIT:
                quotient = -lfzip._LATTICE_LIMIT
            t = float(min(max(round(quotient), -limit), limit))
        else:
            t = 0.0
        fitted = base + t * step
        prediction = 0.0
        for j in range(lfzip.ORDER):
            prediction += weights[j] * history[j]
        code = t - round(prediction)
        if (abs(code) < lfzip._CODE_LIMIT
                and abs(fitted - value) <= tolerance[k]):
            symbols.append(varint.zigzag_encode(int(code)) + 1)
            recon.append(fitted)
            t_values.append(t)
            escaped.append(False)
            history = [t] + history[:-1]
        else:
            stored = float(np.float32(value))
            symbols.append(lfzip._ESCAPE_SYMBOL)
            recon.append(stored)
            outliers.append(stored)
            t_values.append(0.0)
            escaped.append(True)
            base = stored
            history = [0.0] * lfzip.ORDER
    return symbols, outliers, recon, t_values, escaped


class ReferenceLFZip(LFZip):
    """LFZip with the per-point block encoder."""

    _encode_block = staticmethod(lfzip_encode_block)
    _encode_symbols = staticmethod(huffman_encode)


#: reference class per registered codec name
REFERENCES: dict[str, type[Compressor]] = {
    cls.name: cls for cls in (ReferencePMC, ReferenceSwing, ReferenceCameo,
                              ReferenceSZ, ReferenceLFZip)}


def make_compressor(name: str, **kwargs) -> Compressor:
    """Scalar reference twin of the registered codec ``name``."""
    try:
        factory = REFERENCES[name]
    except KeyError:
        raise KeyError(
            f"no scalar reference for compression method {name!r}; "
            f"choose one of {sorted(REFERENCES)}") from None
    return factory(**kwargs)
