"""Sliding-window construction for training and evaluation.

Every window is a row of a :func:`~numpy.lib.stride_tricks.sliding_window_view`
over the series, copied out once with ``ascontiguousarray`` (or a fancy
index).  No Python loop runs per window, and a caller that keeps only some
windows draws their start indices first (:func:`drawn_windows`), so the
windows it discards are never built.  The stacked per-window loops these
replace are the twins in :mod:`repro.reference`, pinned value for value.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def window_count(length: int, input_length: int, horizon: int,
                 stride: int = 1) -> int:
    """Number of ``input_length + horizon`` windows in a series of
    ``length`` values, advancing by ``stride``; raises if there are none."""
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    total = input_length + horizon
    if length < total:
        raise ValueError(
            f"series of length {length} is too short for windows of "
            f"{input_length}+{horizon}"
        )
    return (length - total) // stride + 1


def _rows(values: np.ndarray, width: int, offset: int, count: int,
          stride: int) -> np.ndarray:
    """``count`` contiguous rows of ``width`` values starting at
    ``offset``, ``offset + stride``, ..."""
    view = sliding_window_view(values[offset:], width)
    return np.ascontiguousarray(view[:(count - 1) * stride + 1:stride])


def make_windows(values: np.ndarray, input_length: int, horizon: int,
                 stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(inputs, targets)`` windows from one series.

    ``inputs[i]`` holds ``input_length`` consecutive values and
    ``targets[i]`` the ``horizon`` values that follow, advancing by
    ``stride`` between windows.
    """
    values = np.asarray(values, dtype=np.float64)
    count = window_count(len(values), input_length, horizon, stride)
    return (_rows(values, input_length, 0, count, stride),
            _rows(values, horizon, input_length, count, stride))


def paired_windows(input_values: np.ndarray, target_values: np.ndarray,
                   input_length: int, horizon: int, stride: int = 1
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Windows whose inputs come from one series and targets from another.

    The paper's scenario feeds models *decompressed* inputs while scoring
    against the *raw* future values (Algorithm 1: ``test.x`` transformed,
    ``test.y`` raw), which requires the two series to be aligned.  Only
    the half each series supplies is built.
    """
    input_values = np.asarray(input_values, dtype=np.float64)
    target_values = np.asarray(target_values, dtype=np.float64)
    if input_values.shape != target_values.shape:
        raise ValueError(
            f"aligned series must share a shape, got {input_values.shape} "
            f"vs {target_values.shape}"
        )
    count = window_count(len(input_values), input_length, horizon, stride)
    return (_rows(input_values, input_length, 0, count, stride),
            _rows(target_values, horizon, input_length, count, stride))


def drawn_windows(values: np.ndarray, input_length: int, horizon: int,
                  limit: int, rng: np.random.Generator,
                  starts: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """At most ``limit`` stride-1 windows, drawn before any is built.

    ``starts`` are the candidate start indices (every window's by
    default).  Over ``limit`` candidates, ``rng.choice(len(starts),
    size=limit, replace=False)`` picks the kept ones, sorted — the draw
    that subsampling the full window set makes — and only those rows are
    built, so the result equals building every window and then
    subsampling it, without the windows that are thrown away.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    values = np.asarray(values, dtype=np.float64)
    if starts is None:
        starts = np.arange(window_count(len(values), input_length, horizon))
    if len(starts) > limit:
        keep = rng.choice(len(starts), size=limit, replace=False)
        keep.sort()
        starts = starts[keep]
    inputs = sliding_window_view(values[:len(values) - horizon],
                                 input_length)[starts]
    targets = sliding_window_view(values[input_length:], horizon)[starts]
    return inputs, targets
