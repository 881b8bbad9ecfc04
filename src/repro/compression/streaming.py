"""Online (streaming) compression for the edge-device scenario.

The paper's motivating deployment compresses on the wind turbine as values
arrive (Section 1).  PMC and Swing are online algorithms by construction —
they maintain a single open window — so this module exposes them as
incremental encoders: ``push`` one value at a time, collect finished
segments as they close, and ``flush`` at the end.  Tests verify that the
streamed segments reconstruct the batch codec's output bit for bit.

``extend`` runs the same chunked scan as the batch chase
(``kernels.pmc_scan``/``swing_scan``), starting from the window carried in
from earlier values, and rebuilds the closed windows' bounds as the chase
does; PMC constants are stored by the batch rule (``pmc.store_float32``).
So feeding an array is vectorized while producing exactly the segments
that per-value ``push`` calls would (``push`` stays the scalar reference);
the window state carried across ``extend``/``push``/``flush`` boundaries is
identical on both paths.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.compression import kernels, pmc, swing


@dataclass(frozen=True)
class ConstantSegment:
    """A finished PMC segment: ``length`` points represented by ``value``."""

    length: int
    value: float

    def reconstruct(self) -> np.ndarray:
        return np.full(self.length, self.value)


@dataclass(frozen=True)
class LinearSegment:
    """A finished Swing segment: a line over ``length`` points."""

    length: int
    slope: float
    intercept: float

    def reconstruct(self) -> np.ndarray:
        return self.intercept + self.slope * np.arange(self.length)


@dataclass(frozen=True)
class LFZipSegment:
    """A finished LFZip block: NLMS-coded residuals over ``length`` points.

    Unlike the constant/linear segments a block is not a closed-form
    shape, so the segment carries everything its standalone
    ``reconstruct`` needs: the lattice ``step``, the carry-in ``base``,
    the NLMS ``weights`` frozen for the block, the residual ``symbols``
    (0 = escape) and the escaped float32 ``outliers`` in order.
    """

    length: int
    step: float
    base: float
    weights: tuple[float, ...]
    symbols: tuple[int, ...]
    outliers: tuple[float, ...]

    def reconstruct(self) -> np.ndarray:
        from repro.compression import lfzip

        recon, _, _ = lfzip.decode_block(
            self.step, self.base, self.weights,
            np.asarray(self.symbols, dtype=np.int64),
            np.asarray(self.outliers, dtype=np.float64))
        return recon


class OnlineCompressor(ABC):
    """Incremental encoder producing segments as the stream arrives."""

    def __init__(self, error_bound: float, max_segment_length: int = 0xFFFF
                 ) -> None:
        if error_bound < 0:
            raise ValueError(f"error bound must be non-negative, got {error_bound}")
        if max_segment_length < 1:
            raise ValueError("max segment length must be positive")
        self.error_bound = error_bound
        self.max_segment_length = max_segment_length
        self._closed_segments: list = []
        self._finished = False

    def push(self, value: float) -> list:
        """Feed one value; returns any segments that closed as a result."""
        if self._finished:
            raise RuntimeError("push() after flush(); create a new encoder")
        before = len(self._closed_segments)
        self._push(float(value))
        return self._closed_segments[before:]

    def extend(self, values) -> list:
        """Feed many values; returns all segments closed along the way."""
        before = len(self._closed_segments)
        for value in values:
            self.push(value)
        return self._closed_segments[before:]

    def flush(self) -> list:
        """Close the open window; returns the final segment(s)."""
        if self._finished:
            return []
        self._finished = True
        before = len(self._closed_segments)
        self._flush()
        return self._closed_segments[before:]

    @property
    def segments(self) -> list:
        """All segments closed so far."""
        return list(self._closed_segments)

    def snapshot(self) -> dict:
        """The open-window state, as JSON-safe scalars.

        The snapshot captures everything needed to continue the stream —
        the configuration plus the subclass's window state — but NOT the
        segments already closed: those were handed to the caller as they
        closed, so a restored encoder resumes mid-window and keeps
        emitting exactly the segments the uninterrupted encoder would
        (pinned by the round-trip tests).  Non-finite floats (the ±inf
        cone bounds of a fresh window) survive both JSON (Python's
        literal extension) and the columnar cache format.
        """
        return {
            "algorithm": type(self).__name__,
            "error_bound": self.error_bound,
            "max_segment_length": self.max_segment_length,
            "finished": self._finished,
            "state": self._state_snapshot(),
        }

    @abstractmethod
    def _push(self, value: float) -> None: ...

    @abstractmethod
    def _flush(self) -> None: ...

    @abstractmethod
    def _state_snapshot(self) -> dict: ...

    @abstractmethod
    def _restore_state(self, state: dict) -> None: ...

    def _extend_array(self, values) -> np.ndarray:
        """Coerce ``extend`` input to float64, enforcing push's lifecycle."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        array = np.asarray(values, dtype=np.float64)
        if array.size and self._finished:
            raise RuntimeError("push() after flush(); create a new encoder")
        return array


class OnlinePMC(OnlineCompressor):
    """Streaming PMC-Mean (identical segmentation to the batch PMC).

    Window means are prefix-sum anchored, exactly as in the batch PMC: the
    running total is one left fold over the whole stream (never reset), and
    a window's mean is ``(total - base) / count`` with ``base`` the fold at
    the window start.  Feeding the same values therefore reproduces the
    batch segmentation bit for bit, on both ``push`` and ``extend``.
    """

    def __init__(self, error_bound: float, max_segment_length: int = 0xFFFF
                 ) -> None:
        super().__init__(error_bound, max_segment_length)
        self._count = 0
        self._base = 0.0  # prefix sum at the open window's start
        self._total = 0.0  # running prefix sum over the whole stream
        self._lo = -math.inf
        self._hi = math.inf

    def _close(self) -> None:
        if self._count:
            mean = (self._total - self._base) / self._count
            value = pmc._store_float32(mean, self._lo, self._hi)
            self._closed_segments.append(ConstantSegment(self._count, value))

    def _push(self, value: float) -> None:
        allowed = self.error_bound * abs(value)
        new_lo = max(self._lo, value - allowed)
        new_hi = min(self._hi, value + allowed)
        new_total = self._total + value
        # prospective segment length if `value` joins the window; closing at
        # `> max` caps emitted segments at exactly max_segment_length, the
        # same predicate as OnlineSwing and the batch PMC (pinned by the
        # boundary tests in tests/compression/test_streaming.py)
        count = self._count + 1
        diff = new_total - self._base
        if (count > self.max_segment_length
                or diff < new_lo * count or diff > new_hi * count):
            self._close()
            self._count = 1
            self._base = self._total
            self._lo = value - allowed
            self._hi = value + allowed
        else:
            self._count = count
            self._lo, self._hi = new_lo, new_hi
        self._total = new_total

    def _flush(self) -> None:
        self._close()

    def _state_snapshot(self) -> dict:
        return {"count": self._count, "base": self._base,
                "total": self._total, "lo": self._lo, "hi": self._hi}

    def _restore_state(self, state: dict) -> None:
        self._count = int(state["count"])
        self._base = float(state["base"])
        self._total = float(state["total"])
        self._lo = float(state["lo"])
        self._hi = float(state["hi"])

    def extend(self, values) -> list:
        """Vectorized bulk feed via the batch chase's chunked PMC scan."""
        array = self._extend_array(values)
        if array.size == 0:
            return []
        point_lo, point_hi = kernels.point_bounds(array, self.error_bound)
        sums = kernels.prefix_sums(array, self._total)
        if self._count:
            starts = [-self._count]
            window = (self._base, self._lo, self._hi)
        else:
            starts, window = [0], None
        kernels.pmc_scan(point_lo, point_hi, sums, self.max_segment_length,
                         starts, window)
        lengths, means, lo, hi = kernels.pmc_windows(point_lo, point_hi,
                                                     sums, starts, window)
        stored = pmc.store_float32(means[:-1], lo[:-1], hi[:-1])
        closed = [ConstantSegment(length, value) for length, value
                  in zip(lengths[:-1].tolist(), stored.tolist())]
        self._closed_segments.extend(closed)
        self._count = int(lengths[-1])
        if len(starts) > 1:
            self._base = float(sums[starts[-1]])
        self._total = float(sums[-1])
        self._lo, self._hi = float(lo[-1]), float(hi[-1])
        return closed


class OnlineSwing(OnlineCompressor):
    """Streaming Swing filter (identical cone logic to the batch Swing)."""

    def __init__(self, error_bound: float, max_segment_length: int = 0xFFFF
                 ) -> None:
        super().__init__(error_bound, max_segment_length)
        self._anchor: float | None = None
        self._run = 0
        self._slope_lo = -math.inf
        self._slope_hi = math.inf

    def _close(self) -> None:
        if self._anchor is None:
            return
        if self._run == 0 or not math.isfinite(self._slope_lo):
            slope = 0.0
        else:
            slope = (self._slope_lo + self._slope_hi) / 2.0
        self._closed_segments.append(
            LinearSegment(self._run + 1, float(slope), float(self._anchor)))

    def _push(self, value: float) -> None:
        if self._anchor is None:
            self._anchor = value
            self._run = 0
            return
        allowed = self.error_bound * abs(value)
        run = self._run + 1
        new_lo = max(self._slope_lo, (value - allowed - self._anchor) / run)
        new_hi = min(self._slope_hi, (value + allowed - self._anchor) / run)
        # `run` counts points after the anchor, so `run + 1` is the
        # prospective segment length if `value` joins — the same
        # "prospective length > max" predicate as OnlinePMC (whose `count`
        # already includes the anchor) and the batch Swing; segments are
        # capped at exactly max_segment_length on all four paths
        prospective_length = run + 1
        if prospective_length > self.max_segment_length or new_lo > new_hi:
            self._close()
            self._anchor = value
            self._run = 0
            self._slope_lo = -math.inf
            self._slope_hi = math.inf
        else:
            self._run = run
            self._slope_lo, self._slope_hi = new_lo, new_hi

    def _flush(self) -> None:
        self._close()

    def _state_snapshot(self) -> dict:
        return {"anchor": self._anchor, "run": self._run,
                "slope_lo": self._slope_lo, "slope_hi": self._slope_hi}

    def _restore_state(self, state: dict) -> None:
        anchor = state["anchor"]
        self._anchor = None if anchor is None else float(anchor)
        self._run = int(state["run"])
        self._slope_lo = float(state["slope_lo"])
        self._slope_hi = float(state["slope_hi"])

    def extend(self, values) -> list:
        """Vectorized bulk feed via the batch chase's chunked cone scan."""
        array = self._extend_array(values)
        if array.size == 0:
            return []
        low_num, high_num = kernels.point_bounds(array, self.error_bound)
        if self._anchor is None:
            starts, window = [0], None
        else:
            starts = [-(self._run + 1)]
            window = (self._anchor, self._slope_lo, self._slope_hi)
        kernels.swing_scan(array, low_num, high_num, self.max_segment_length,
                           starts, window)
        lengths, lo, hi, anchors = kernels.swing_windows(
            array, low_num, high_num, starts, window)
        slopes = swing.cone_slopes(lengths[:-1], lo[:-1], hi[:-1])
        closed = [LinearSegment(length, slope, anchor)
                  for length, slope, anchor in zip(lengths[:-1].tolist(),
                                                   slopes.tolist(),
                                                   anchors[:-1].tolist())]
        self._closed_segments.extend(closed)
        self._anchor = float(anchors[-1])
        self._run = int(lengths[-1]) - 1
        self._slope_lo, self._slope_hi = float(lo[-1]), float(hi[-1])
        return closed


class OnlineLFZip(OnlineCompressor):
    """Streaming LFZip: block-buffered NLMS predictive coding.

    The encoder buffers pushed values and encodes a block — via the very
    block pipeline of the batch :class:`~repro.compression.lfzip.LFZip`
    (kernel path) — whenever the buffer fills, then replays the shared
    deterministic weight sweep.  Block boundaries therefore fall at the
    same stream offsets as the batch compressor's, and the concatenated
    segment reconstructions are bit-identical to a batch compress of the
    same values (pinned by the equivalence tests).  ``flush`` encodes
    the partial tail block, matching the batch tail.
    """

    def __init__(self, error_bound: float, max_segment_length: int = 0xFFFF,
                 block_size: int | None = None) -> None:
        from repro.compression import lfzip

        super().__init__(error_bound, max_segment_length)
        if block_size is None:
            block_size = lfzip.DEFAULT_BLOCK_SIZE
        self.block_size = min(int(block_size), max_segment_length)
        self._weights: tuple[float, ...] = lfzip.INIT_WEIGHTS
        self._carry = 0.0
        self._buffer: list[float] = []

    def _encode_block(self) -> None:
        from repro.compression import lfzip

        block = np.asarray(self._buffer, dtype=np.float64)
        self._buffer = []
        tolerance = self.error_bound * np.abs(block)
        step = lfzip.block_step(block, self.error_bound)
        symbols, outliers, recon, t_values, escaped = \
            lfzip.encode_block_kernel(block, tolerance, step, self._carry,
                                      self._weights)
        self._closed_segments.append(LFZipSegment(
            len(block), step, self._carry, tuple(self._weights),
            tuple(int(s) for s in symbols),
            tuple(float(o) for o in outliers)))
        self._weights = lfzip.update_weights(self._weights, t_values, escaped)
        self._carry = float(recon[-1])

    def _push(self, value: float) -> None:
        self._buffer.append(value)
        if len(self._buffer) >= self.block_size:
            self._encode_block()

    def extend(self, values) -> list:
        """Bulk feed, encoding every filled block on the kernel path."""
        array = self._extend_array(values)
        before = len(self._closed_segments)
        position = 0
        while position < len(array):
            take = min(self.block_size - len(self._buffer),
                       len(array) - position)
            self._buffer.extend(float(v)
                                for v in array[position:position + take])
            position += take
            if len(self._buffer) >= self.block_size:
                self._encode_block()
        return self._closed_segments[before:]

    def _flush(self) -> None:
        if self._buffer:
            self._encode_block()

    def _state_snapshot(self) -> dict:
        return {"block_size": self.block_size,
                "weights": list(self._weights), "carry": self._carry,
                "buffer": list(self._buffer)}

    def _restore_state(self, state: dict) -> None:
        self.block_size = int(state["block_size"])
        self._weights = tuple(float(w) for w in state["weights"])
        self._carry = float(state["carry"])
        self._buffer = [float(v) for v in state["buffer"]]


def reconstruct(segments: list) -> np.ndarray:
    """Decode a list of streaming segments back into values."""
    if not segments:
        return np.empty(0)
    return np.concatenate([segment.reconstruct() for segment in segments])


#: snapshot "algorithm" tag -> streaming encoder class
STREAMING_ALGORITHMS: dict[str, type[OnlineCompressor]] = {
    "OnlinePMC": OnlinePMC,
    "OnlineSwing": OnlineSwing,
    "OnlineLFZip": OnlineLFZip,
}


def restore_compressor(snapshot: dict) -> OnlineCompressor:
    """Rebuild an encoder from :meth:`OnlineCompressor.snapshot`.

    The restored encoder continues the stream exactly where the snapshot
    left it: feeding it the remaining values closes the same segments,
    with the same payload bytes, as the uninterrupted encoder would.
    """
    cls = STREAMING_ALGORITHMS.get(snapshot.get("algorithm"))
    if cls is None:
        raise ValueError(
            f"unknown streaming algorithm {snapshot.get('algorithm')!r}")
    encoder = cls(float(snapshot["error_bound"]),
                  int(snapshot["max_segment_length"]))
    encoder._finished = bool(snapshot["finished"])
    encoder._restore_state(snapshot["state"])
    return encoder


_CONSTANT = struct.Struct("<Qd")
_LINEAR = struct.Struct("<Qdd")
_LFZIP_HEAD = struct.Struct("<Qdd")  # length, step, base
_U32 = struct.Struct("<I")


def segments_payload(segments) -> bytes:
    """Canonical bytes of a segment sequence, for byte-identity checks.

    One tagged record per segment — ``b"C"`` + length + float64 value for
    constants, ``b"L"`` + length + float64 slope + intercept for lines —
    so two segment streams are equal iff their payloads are equal, with
    no float-repr ambiguity.  The equivalence suite compares a streamed
    session against a local batch ``extend`` through this function.
    """
    parts: list[bytes] = []
    for segment in segments:
        if isinstance(segment, ConstantSegment):
            parts.append(b"C" + _CONSTANT.pack(segment.length, segment.value))
        elif isinstance(segment, LinearSegment):
            parts.append(b"L" + _LINEAR.pack(segment.length, segment.slope,
                                             segment.intercept))
        elif isinstance(segment, LFZipSegment):
            parts.append(
                b"F" + _LFZIP_HEAD.pack(segment.length, segment.step,
                                        segment.base)
                + np.asarray(segment.weights, dtype="<f8").tobytes()
                + _U32.pack(len(segment.symbols))
                + np.asarray(segment.symbols, dtype="<u4").tobytes()
                + _U32.pack(len(segment.outliers))
                + np.asarray(segment.outliers, dtype="<f8").tobytes())
        else:
            raise TypeError(f"not a streaming segment: {segment!r}")
    return b"".join(parts)


def segment_to_wire(segment) -> tuple[str, int, tuple[float, ...]]:
    """One segment as its wire triple ``(kind, length, params)``."""
    if isinstance(segment, ConstantSegment):
        return "constant", segment.length, (segment.value,)
    if isinstance(segment, LinearSegment):
        return "linear", segment.length, (segment.slope, segment.intercept)
    if isinstance(segment, LFZipSegment):
        # flat float params: step, base, the 4 weights, the outlier count,
        # the outliers, then `length` symbols (small ints, exact in f64)
        return "lfzip", segment.length, (
            (segment.step, segment.base) + tuple(segment.weights)
            + (float(len(segment.outliers)),) + tuple(segment.outliers)
            + tuple(float(s) for s in segment.symbols))
    raise TypeError(f"not a streaming segment: {segment!r}")


def segment_from_wire(kind: str, length: int, params
                      ) -> ConstantSegment | LinearSegment | LFZipSegment:
    """Rebuild a segment from its wire triple (inverse of the above)."""
    values = tuple(float(p) for p in params)
    if kind == "constant" and len(values) == 1:
        return ConstantSegment(int(length), values[0])
    if kind == "linear" and len(values) == 2:
        return LinearSegment(int(length), values[0], values[1])
    if kind == "lfzip" and len(values) >= 7:
        step, base = values[0], values[1]
        weights = values[2:6]
        n_outliers = int(values[6])
        symbol_start = 7 + n_outliers
        outliers = values[7:symbol_start]
        symbols = tuple(int(s) for s in values[symbol_start:])
        if len(outliers) == n_outliers and len(symbols) == int(length):
            return LFZipSegment(int(length), step, base, weights, symbols,
                                outliers)
    raise ValueError(f"malformed wire segment ({kind!r}, {length}, {params})")
