"""Vectorized kernels for the segment compressors.

PMC and Swing both grow an adaptive window point by point and close it the
first time a running invariant breaks (the window mean leaves the admissible
interval; the slope cone empties).  The scalar loops are exact but cost a
Python interpreter round-trip per point, which dominates the evaluation
grid's wall clock before a single forecaster runs.

Two kernel families live here, both bit-for-bit identical to the scalar
reference loops, picked per series by a cheap sampling dispatch:

**Dense first-violation sweeps** (short-segment regime) compute, for every
position ``i`` at once, the index ``E[i]`` where a fresh window opened at
``i`` would close.  The sweep runs in rounds over the window offset ``k``
and has two phases: a *slice phase* that merges point ``i + k`` into every
window with contiguous full-array slices (in-place envelope updates, no
gathers, closed windows masked out of the violation scatter), and a
*gather phase* that compacts the survivors once the open fraction drops
and from then on touches only the active windows.  The segmentation falls
out of a pointer chase ``0 -> E[0] -> E[E[0]] -> ...``; when the chase
lands on a window the sweep left unresolved, the chunked scan closes just
that one segment and the chase resumes on ``E`` — none of the sweep's
work is discarded.  Total work is ``O(n * mean_segment_length)``
elementary C operations.

**Chunked scans** (long-segment regime) walk segment-at-a-time: cumulative
min/max bound envelopes over a lookahead chunk, first violation by
``argmax``, a handful of numpy calls per segment regardless of its length.
Each filter has one scan (``pmc_scan``, ``swing_scan``), shared by the batch
chase and the streaming encoders' ``extend``
(``repro.compression.streaming``).  It starts from an explicit open window:
a fresh one at a position, or one carried in from an earlier ``extend``,
whose start is virtual and negative.  Scans record only where windows start;
``pmc_windows``/``swing_windows`` then rebuild every window's bounds in one
vectorized pass, folding a carried window's earlier bounds into its own.

Sweep work scales with the mean segment length and scan work with the
segment *count*, so the batch chase (one loop, ``_chase``, for both
filters) first scans a short prefix with the chunked kernel (keeping those
segments — the probe is never wasted work), estimates the mean segment
length, and only runs the dense sweep when segments are short
(``DENSE_MEANLEN_MAX``).  Real series close windows in clusters around the
typical drift length rather than geometrically, so open-fraction
checkpoints inside the sweep are kept only as a loose backstop against
unrepresentative prefixes.

Per-round segment-bound bookkeeping is deliberately absent from the
sweeps and scans: once the window starts are known, the
admissible-mean bounds / slope cones of just those segments are recomputed
in one vectorized pass (``np.maximum.reduceat`` over the same per-point
quantities the scalar loop folds — min/max are associative, so the values
are bitwise identical).

Exactness: running sums are a strict left fold (``prefix_sums``'s cumsum,
seeded with 0 on the batch path and with the carried total on the
streaming path, performs the exact same float64 additions, in the same
order, as ``total += value``), so PMC means are anchored to one global
prefix-sum fold shared by every path.
The PMC close predicate compares window *sums* against count-scaled bounds
(``sum < lo * count``) rather than dividing — one multiply per candidate
instead of a divide — and the scalar batch loop and streaming encoder use
the exact same form, so close decisions agree bit for bit.  Swing's cone
terms use the same subtraction/division order as the scalar loop.  The
scalar loops live in ``repro/reference.py`` and are pinned to the kernels by
the equivalence suite in ``tests/compression/test_kernels.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import inc as _metric_inc

# Initial lookahead of the chunked scans; doubles while a window stays
# open, and restarts at twice the previous segment's length after a close.
MIN_CHUNK = 16
# Upper bound on the lookahead so a close never rescans more than this.
MAX_CHUNK = 4096

# The CAMEO scan folds each window's first points one at a time in plain
# Python before switching to vectorized chunks: three seeded cumsums per
# chunk cost more than the scalar fold until a window survives this long.
CAMEO_WARMUP = 32

# The batch chase probes this many segments with the chunked scan to
# estimate the mean segment length before picking a kernel.
SAMPLE_SEGMENTS = 48
# ... but stops probing early once this many points are consumed.
SAMPLE_POINTS = 8192
# Run the dense sweep only when the sampled mean segment length is at most
# this; beyond it the chunked scan's per-segment cost amortizes better
# than the sweep's O(n * mean_length) work.  Swing's sweep rounds carry
# two divisions, so its crossover sits lower than PMC's.
PMC_DENSE_MEANLEN_MAX = 24.0
SWING_DENSE_MEANLEN_MAX = 18.0

# Dense sweeps give up on windows still open after this many rounds and
# leave them to the chunked scans.
DENSE_ROUNDS = 96
# The slice phase runs at most this many rounds before the survivors are
# compacted for the gather phase.
PHASE1_MAX_ROUNDS = 40
# Switch from the slice phase to the gather phase as soon as the open
# fraction drops below this: from here on, gathering only the active
# windows is cheaper than full-array slices.  PMC's slice rounds are all
# cheap contiguous ufuncs, so staying in them longer wins; Swing's carry
# two divisions per round, moving its crossover up.
PMC_DENSE_SWITCH_FRACTION = 0.25
SWING_DENSE_SWITCH_FRACTION = 0.42
# Backstop: abandon the sweep when this many rounds in, almost every
# window is still open — the sampled prefix misrepresented the series and
# the chunked scan should finish the job.
DENSE_ABANDON_ROUND = 32
DENSE_ABANDON_FRACTION = 0.85
# Stop the gather phase once this few windows survive: each remaining
# round costs fixed numpy call overhead on near-empty arrays, while an
# unresolved (OPEN) window only costs anything if the chase actually
# lands on it — and then just one single-segment chunked scan.  Most
# survivors are interior positions the chain never visits.
GATHER_MIN_SURVIVORS = 64

#: ``E`` sentinel: the window's close position was not determined.
OPEN = -1


def prefix_sums(values: np.ndarray, seed: float = 0.0) -> np.ndarray:
    """Left-fold prefix sums ``S`` with ``S[0] = seed``.

    ``S[i]`` equals the float64 value of ``total`` after sequentially adding
    the first ``i`` values to ``seed``, so window sums anchored to ``S`` are
    identical on the batch path (``seed`` 0) and the streaming path (``seed``
    the running total carried in).
    """
    sums = np.empty(len(values) + 1)
    sums[0] = seed
    sums[1:] = values
    # accumulate over the seed so even the first element goes through a
    # real addition: cumsum on the values alone would *copy* element 0, and
    # a copied -0.0 differs bitwise from the scalar fold's 0.0 + -0.0 == +0.0
    np.cumsum(sums, out=sums)
    return sums


def point_bounds(values: np.ndarray, error_bound: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-point admissible interval ``v -+ eps * |v|`` (Definition 4)."""
    allowed = error_bound * np.abs(values)
    return values - allowed, values + allowed


def _seed_first(seg_lo: np.ndarray, seg_hi: np.ndarray, span: int,
                lo: float, hi: float) -> None:
    """Fold a carried window's earlier bounds into its (first) entry.

    ``span`` is how many of the window's points lie in the arrays; with
    none, ``reduceat`` returned a stray point and the carried bounds are
    the whole fold.
    """
    if span == 0:
        seg_lo[0], seg_hi[0] = lo, hi
    else:
        np.maximum(seg_lo[:1], lo, out=seg_lo[:1])
        np.minimum(seg_hi[:1], hi, out=seg_hi[:1])


def _chase(kind: str, scan, sweep, n: int, meanlen_max: float) -> list[int]:
    """Batch segmentation shared by PMC and Swing; returns window starts.

    ``scan(starts, stop_segments)`` runs the filter's chunked scan from a
    fresh window at ``starts[-1]``; ``sweep(offset)`` its dense sweep over
    ``[offset, n)``.  The scan probes a prefix first, keeping its segments;
    the sampled mean segment length then picks the regime.  On the dense
    path the chase follows the sweep's chain, and a window the sweep left
    ``OPEN`` is closed by one single-segment scan.
    """
    starts = [0]
    position = scan(starts, SAMPLE_SEGMENTS)
    if position >= n:
        # the sampling probe consumed the whole series; no dispatch needed
        _metric_inc(f"kernel.{kind}.probe_only")
        return starts
    dense = position <= meanlen_max * max(1, len(starts) - 1)
    _metric_inc(f"kernel.{kind}.dense" if dense else f"kernel.{kind}.chunked")
    if not dense:
        scan(starts, 0)
        return starts
    offset = position
    rel_n = n - offset
    chain = sweep(offset).tolist()
    append = starts.append
    while position < n:
        end = chain[position - offset]
        if end == OPEN:
            # The sweep left this window unresolved (longer than
            # DENSE_ROUNDS); close just this one segment with the chunked
            # scan, then resume following the chain.
            position = scan(starts, 1)
        elif end == rel_n:
            break  # final window runs to the end of the array
        else:
            position = offset + end
            append(position)
    return starts


# ---------------------------------------------------------------------------
# PMC-Mean
# ---------------------------------------------------------------------------

def pmc_scan(point_lo: np.ndarray, point_hi: np.ndarray, sums: np.ndarray,
             max_length: int, starts: list[int],
             window: tuple[float, float, float] | None = None,
             stop_segments: int = 0) -> int:
    """Chunked PMC-Mean scan from the window open at ``starts[-1]``.

    ``sums`` are the prefix sums of the points (``sums[i]`` folds every
    point before ``i``).  With ``window=None`` a fresh window opens at
    ``starts[-1]``.  Otherwise ``window`` is ``(base, lo, hi)``, a window
    carried in from points before index 0: ``starts[-1]`` is its virtual,
    negative start (``-count``), ``base`` the prefix sum there and
    ``lo``/``hi`` the admissible-mean bounds of its points so far.

    Each close appends the violator's index (the next window's start) to
    ``starts``; the window still open at the end is left implicit.  With
    ``stop_segments`` the scan pauses after that many closes (or once
    ``SAMPLE_POINTS`` are consumed) and returns the start it stopped at;
    otherwise it returns ``len(point_lo)``.

    Like the scalar loop, a window's first point is absorbed into the
    bounds without a predicate check: ``S[i+1] - S[i]`` is not exactly
    ``values[i]`` in float64, so evaluating count == 1 could close a window
    on its opening point, something the reference never does.
    """
    n = len(point_lo)
    window_start = start = starts[-1]
    if window is None:
        base = float(sums[start])
        lo = float(point_lo[start])
        hi = float(point_hi[start])
    else:
        base, lo, hi = window
    position = max(start + 1, 0)
    chunk = MIN_CHUNK
    stop_after = len(starts) + stop_segments
    while position < n:
        end = min(position + chunk, window_start + max_length, n)
        if end <= position:
            # the window already holds max_length points: forced close,
            # the next point starts a fresh window
            boundary = position
        else:
            lo_env = np.maximum.accumulate(point_lo[position:end])
            hi_env = np.minimum.accumulate(point_hi[position:end])
            np.maximum(lo_env, lo, out=lo_env)
            np.minimum(hi_env, hi, out=hi_env)
            diff = sums[position + 1:end + 1] - base
            counts = np.arange(position - window_start + 1,
                               end - window_start + 1, dtype=np.float64)
            violation = (diff < lo_env * counts) | (diff > hi_env * counts)
            j = int(violation.argmax())
            if violation[j]:
                boundary = position + j  # the violator starts the next window
            elif end == window_start + max_length and end < n:
                boundary = end  # forced close: the window is at capacity
            else:
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
                position = end
                chunk = min(2 * chunk, MAX_CHUNK)
                continue
        starts.append(boundary)
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * (boundary - window_start)))
        window_start = boundary
        base = float(sums[boundary])
        lo = float(point_lo[boundary])
        hi = float(point_hi[boundary])
        position = boundary + 1
        if stop_segments and (len(starts) >= stop_after
                              or boundary - start >= SAMPLE_POINTS):
            return boundary
    return n


def pmc_windows(point_lo: np.ndarray, point_hi: np.ndarray, sums: np.ndarray,
                starts: list[int],
                window: tuple[float, float, float] | None = None,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, means, lo, hi)`` of the windows opened at ``starts``.

    Window ``k`` runs to ``starts[k + 1]``, the last one to the end of the
    arrays.  A carried ``window`` (see ``pmc_scan``) supplies the first
    window's prefix-sum base and seeds its bounds.  min/max are
    associative, so folding each window's points in one ``reduceat``
    reproduces the scalar loop's running bounds bit for bit.
    """
    bounds = np.array(starts + [len(point_lo)], dtype=np.int64)
    lengths = bounds[1:] - bounds[:-1]
    in_starts = np.maximum(bounds[:-1], 0)
    bases = sums[in_starts]
    if window is not None:
        bases[0] = window[0]
    means = (sums[bounds[1:]] - bases) / lengths
    seg_lo = np.maximum.reduceat(point_lo, in_starts)
    seg_hi = np.minimum.reduceat(point_hi, in_starts)
    if window is not None:
        _seed_first(seg_lo, seg_hi, bounds[1], window[1], window[2])
    return lengths, means, seg_lo, seg_hi


def _pmc_sweep(point_lo: np.ndarray, point_hi: np.ndarray, sums: np.ndarray,
               max_length: int) -> np.ndarray:
    """Dense first-violation sweep for PMC-Mean (short-segment regime).

    Operates on (views of) the per-point bound arrays and prefix sums;
    returns ``E`` relative to the view: the index of the first point that
    violates a fresh window opened at each position, ``len`` when the
    window runs to the end, ``OPEN`` when unresolved.
    """
    n = len(point_lo)
    ends = np.full(n, OPEN, dtype=np.int64)
    rounds = min(DENSE_ROUNDS, max_length)
    phase1_rounds = min(PHASE1_MAX_ROUNDS, rounds)

    # --- slice phase: every window at once, contiguous in-place updates.
    # ``lo[i]``/``hi[i]`` accumulate the admissible-mean envelope of the
    # window opened at ``i``; entries of already-closed windows keep
    # updating but are masked out of the violation scatter by ``open_m``.
    lo = point_lo.copy()
    hi = point_hi.copy()
    open_m = np.ones(n, dtype=bool)
    # Preallocated per-round scratch: fresh n-sized allocations are mmap
    # territory and would dominate the round cost.
    buf_diff = np.empty(n)
    buf_lo = np.empty(n)
    buf_hi = np.empty(n)
    buf_v1 = np.empty(n, dtype=bool)
    buf_v2 = np.empty(n, dtype=bool)

    abandoned = False
    k_done = 0
    for k in range(1, phase1_rounds + 1):
        m = n - k
        if m <= 0:
            break
        np.maximum(lo[:m], point_lo[k:], out=lo[:m])
        np.minimum(hi[:m], point_hi[k:], out=hi[:m])
        count = k + 1
        diff = np.subtract(sums[count:], sums[:m], out=buf_diff[:m])
        scaled_lo = np.multiply(lo[:m], count, out=buf_lo[:m])
        scaled_hi = np.multiply(hi[:m], count, out=buf_hi[:m])
        violation = np.less(diff, scaled_lo, out=buf_v1[:m])
        above = np.greater(diff, scaled_hi, out=buf_v2[:m])
        np.logical_or(violation, above, out=violation)
        if count > max_length:
            violation[:] = True
        np.logical_and(violation, open_m[:m], out=violation)
        closed = np.flatnonzero(violation)
        if closed.size:
            ends[closed] = closed + k
            open_m[closed] = False
        k_done = k
        if k % 2 == 0 or k == phase1_rounds:
            fraction = np.count_nonzero(open_m[:m]) / m
            if (k >= DENSE_ABANDON_ROUND
                    and fraction > DENSE_ABANDON_FRACTION):
                abandoned = True
                break
            if fraction < PMC_DENSE_SWITCH_FRACTION or k == phase1_rounds:
                break

    # Open windows that already absorbed every remaining point ran to the
    # end of the array.
    still_open = np.flatnonzero(open_m)
    ends[still_open[still_open >= n - 1 - k_done]] = n
    if abandoned or k_done >= rounds:
        return ends

    # --- gather phase: compact the survivors, then touch only them.
    idx = still_open[still_open < n - 1 - k_done]
    if idx.size == 0:
        return ends
    act_lo = lo[idx]
    act_hi = hi[idx]
    base = sums[idx]
    for k in range(k_done + 1, rounds + 1):
        if idx.size <= GATHER_MIN_SURVIVORS:
            break  # leave the stragglers OPEN; the chase scans on-chain ones
        # Windows whose next point falls past the array close "open at the
        # end"; idx is sorted, so they form a suffix.
        cut = int(np.searchsorted(idx, n - k))
        if cut < idx.size:
            ends[idx[cut:]] = n
            idx, act_lo, act_hi, base = (idx[:cut], act_lo[:cut],
                                         act_hi[:cut], base[:cut])
            if idx.size == 0:
                break
        j = idx + k
        np.maximum(act_lo, point_lo[j], out=act_lo)
        np.minimum(act_hi, point_hi[j], out=act_hi)
        count = k + 1
        diff = sums[j + 1] - base
        violation = (diff < act_lo * count) | (diff > act_hi * count)
        if count > max_length:
            violation[:] = True
        if violation.any():
            ends[idx[violation]] = j[violation]
            keep = ~violation
            idx, base = idx[keep], base[keep]
            act_lo, act_hi = act_lo[keep], act_hi[keep]
    return ends


def pmc_chase(values: np.ndarray, error_bound: float, max_length: int,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full PMC segmentation: sampling dispatch, sweep/scan, bound recovery.

    Returns parallel arrays ``(lengths, means, lo, hi)`` (see
    ``pmc_windows``), the final window closing at the end of the array.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    sums = prefix_sums(values)
    point_lo, point_hi = point_bounds(values, error_bound)
    starts = _chase(
        "pmc",
        lambda starts, stop: pmc_scan(point_lo, point_hi, sums, max_length,
                                      starts, stop_segments=stop),
        lambda offset: _pmc_sweep(point_lo[offset:], point_hi[offset:],
                                  sums[offset:], max_length),
        len(values), PMC_DENSE_MEANLEN_MAX)
    return pmc_windows(point_lo, point_hi, sums, starts)


# ---------------------------------------------------------------------------
# Swing
# ---------------------------------------------------------------------------

def swing_scan(values: np.ndarray, low_num: np.ndarray,
               high_num: np.ndarray, max_length: int, starts: list[int],
               window: tuple[float, float, float] | None = None,
               stop_segments: int = 0) -> int:
    """Chunked Swing cone scan from the window open at ``starts[-1]``.

    ``low_num``/``high_num`` are the points' admissible intervals.  With
    ``window=None`` a fresh window is anchored at ``starts[-1]``;
    otherwise ``window`` is ``(anchor, lo, hi)``, a window carried in from
    points before index 0 whose anchor sits at the virtual, negative index
    ``starts[-1]`` (``-(run + 1)``) with slope cone ``[lo, hi]`` so far.
    Closes, pauses and the return value are those of ``pmc_scan``.
    """
    n = len(values)
    window_start = start = starts[-1]
    if window is None:
        anchor, lo, hi = float(values[start]), -math.inf, math.inf
    else:
        anchor, lo, hi = window
    position = max(start + 1, 0)
    chunk = MIN_CHUNK
    stop_after = len(starts) + stop_segments
    while position < n:
        end = min(position + chunk, window_start + max_length, n)
        if end <= position:
            # the window already holds max_length points: forced close,
            # the next point anchors a fresh window
            boundary = position
        else:
            runs = np.arange(position - window_start, end - window_start,
                             dtype=np.float64)
            lo_env = np.maximum.accumulate((low_num[position:end] - anchor)
                                           / runs)
            hi_env = np.minimum.accumulate((high_num[position:end] - anchor)
                                           / runs)
            if lo > -math.inf:
                np.maximum(lo_env, lo, out=lo_env)
            if hi < math.inf:
                np.minimum(hi_env, hi, out=hi_env)
            violation = lo_env > hi_env
            j = int(violation.argmax())
            if violation[j]:
                boundary = position + j  # the violator anchors the next window
            elif end == window_start + max_length and end < n:
                boundary = end  # forced close: the window is at capacity
            else:
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
                position = end
                chunk = min(2 * chunk, MAX_CHUNK)
                continue
        starts.append(boundary)
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * (boundary - window_start)))
        window_start = boundary
        anchor = float(values[boundary])
        lo, hi = -math.inf, math.inf
        position = boundary + 1
        if stop_segments and (len(starts) >= stop_after
                              or boundary - start >= SAMPLE_POINTS):
            return boundary
    return n


def swing_windows(values: np.ndarray, low_num: np.ndarray,
                  high_num: np.ndarray, starts: list[int],
                  window: tuple[float, float, float] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, lo, hi, anchors)`` of the windows opened at ``starts``.

    Windows run as in ``pmc_windows``; a carried ``window`` (see
    ``swing_scan``) supplies the first window's anchor and seeds its cone.
    Each cone is rebuilt in one vectorized pass: the same ``(num - anchor)
    / run`` terms the scalar loop folds, with anchor positions masked to
    the fold identity, then one ``reduceat`` per bound.
    """
    n = len(values)
    bounds = np.array(starts + [n], dtype=np.int64)
    lengths = bounds[1:] - bounds[:-1]
    in_bounds = np.maximum(bounds, 0)
    in_starts = in_bounds[:-1]
    spans = in_bounds[1:] - in_starts
    anchors = values[in_starts]
    if window is not None:
        anchors[0] = window[0]
    offsets = np.arange(n, dtype=np.int64)
    offsets -= np.repeat(bounds[:-1], spans)
    rep_anchor = np.repeat(anchors, spans)
    run_div = np.maximum(offsets, 1).astype(np.float64)
    term_lo = np.subtract(low_num, rep_anchor)
    term_lo /= run_div
    term_hi = np.subtract(high_num, rep_anchor, out=rep_anchor)
    term_hi /= run_div
    at_anchor = offsets == 0
    term_lo[at_anchor] = -math.inf
    term_hi[at_anchor] = math.inf
    seg_lo = np.maximum.reduceat(term_lo, in_starts)
    seg_hi = np.minimum.reduceat(term_hi, in_starts)
    if window is not None:
        _seed_first(seg_lo, seg_hi, spans[0], window[1], window[2])
    return lengths, seg_lo, seg_hi, anchors


def _swing_sweep(values: np.ndarray, low_num: np.ndarray,
                 high_num: np.ndarray, max_length: int) -> np.ndarray:
    """Dense first-violation sweep for the Swing slope cone.

    Returns ``E`` relative to the view, as in ``_pmc_sweep``; the window
    anchored at each position closes at the first point emptying its cone.
    """
    n = len(values)
    ends = np.full(n, OPEN, dtype=np.int64)
    rounds = min(DENSE_ROUNDS, max_length)
    phase1_rounds = min(PHASE1_MAX_ROUNDS, rounds)

    # --- slice phase (see _pmc_sweep): cone bounds for the window
    # anchored at ``i`` live at ``lo[i]``/``hi[i]``.
    lo = np.full(n, -math.inf)
    hi = np.full(n, math.inf)
    open_m = np.ones(n, dtype=bool)
    # Preallocated per-round scratch (see _pmc_sweep).
    buf_lo = np.empty(n)
    buf_hi = np.empty(n)
    buf_v = np.empty(n, dtype=bool)

    abandoned = False
    k_done = 0
    for k in range(1, phase1_rounds + 1):
        m = n - k
        if m <= 0:
            break
        term_lo = np.subtract(low_num[k:], values[:m], out=buf_lo[:m])
        term_lo /= k
        np.maximum(lo[:m], term_lo, out=lo[:m])
        term_hi = np.subtract(high_num[k:], values[:m], out=buf_hi[:m])
        term_hi /= k
        np.minimum(hi[:m], term_hi, out=hi[:m])
        violation = np.greater(lo[:m], hi[:m], out=buf_v[:m])
        if k + 1 > max_length:
            violation[:] = True
        np.logical_and(violation, open_m[:m], out=violation)
        closed = np.flatnonzero(violation)
        if closed.size:
            ends[closed] = closed + k
            open_m[closed] = False
        k_done = k
        if k % 2 == 0 or k == phase1_rounds:
            fraction = np.count_nonzero(open_m[:m]) / m
            if (k >= DENSE_ABANDON_ROUND
                    and fraction > DENSE_ABANDON_FRACTION):
                abandoned = True
                break
            if fraction < SWING_DENSE_SWITCH_FRACTION or k == phase1_rounds:
                break

    still_open = np.flatnonzero(open_m)
    ends[still_open[still_open >= n - 1 - k_done]] = n
    if abandoned or k_done >= rounds:
        return ends

    # --- gather phase on the compacted survivors.
    idx = still_open[still_open < n - 1 - k_done]
    if idx.size == 0:
        return ends
    anchor = values[idx]
    act_lo = lo[idx]
    act_hi = hi[idx]
    for k in range(k_done + 1, rounds + 1):
        if idx.size <= GATHER_MIN_SURVIVORS:
            break  # leave the stragglers OPEN; the chase scans on-chain ones
        cut = int(np.searchsorted(idx, n - k))
        if cut < idx.size:
            ends[idx[cut:]] = n
            idx, anchor = idx[:cut], anchor[:cut]
            act_lo, act_hi = act_lo[:cut], act_hi[:cut]
            if idx.size == 0:
                break
        j = idx + k
        term_lo = low_num[j] - anchor
        term_lo /= k
        np.maximum(act_lo, term_lo, out=act_lo)
        term_hi = high_num[j] - anchor
        term_hi /= k
        np.minimum(act_hi, term_hi, out=act_hi)
        violation = act_lo > act_hi
        if k + 1 > max_length:
            violation[:] = True
        if violation.any():
            ends[idx[violation]] = j[violation]
            keep = ~violation
            idx, anchor = idx[keep], anchor[keep]
            act_lo, act_hi = act_lo[keep], act_hi[keep]
    return ends


def swing_chase(values: np.ndarray, error_bound: float, max_length: int,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full Swing segmentation: sampling dispatch, sweep/scan, cone recovery.

    Returns parallel arrays ``(lengths, lo, hi)`` (see ``swing_windows``),
    the final window closing at the end of the array.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    low_num, high_num = point_bounds(values, error_bound)
    starts = _chase(
        "swing",
        lambda starts, stop: swing_scan(values, low_num, high_num,
                                        max_length, starts,
                                        stop_segments=stop),
        lambda offset: _swing_sweep(values[offset:], low_num[offset:],
                                    high_num[offset:], max_length),
        len(values), SWING_DENSE_MEANLEN_MAX)
    return swing_windows(values, low_num, high_num, starts)[:3]


def cameo_chase(values: np.ndarray, error_bound: float, acf_weight: float,
                max_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked CAMEO segmentation (cone ∩ aggregate-deviation intervals).

    CAMEO keeps Swing's per-point slope cone and intersects one extra
    linear constraint per point: the running signed deviation of the
    fitted line from the dropped points must stay within a budget that
    grows with the absolute mass seen — ``|s * A_i - B_i| <= W_i`` with
    ``A_i = sum(run)``, ``B_i = sum(v_k - anchor)`` and ``W_i =
    acf_weight * error_bound * sum(|v_k|)`` — which is what bounds the
    induced autocorrelation/aggregate error of the simplification.

    All running sums are float64 left folds (cumsum seeded with the
    carried totals — the exact additions of the scalar loop, in the same
    order), and min/max envelopes are exact, so the first-violation
    positions and the returned pre-violation cones match the scalar
    reference bit for bit.  Returns ``(lengths, seg_lo, seg_hi)`` like
    ``swing_chase``.

    The segment-at-a-time chunked scan is the right regime here: the
    aggregate constraint needs three running folds per point, so a dense
    per-offset sweep would triple its round cost while typical CAMEO
    segments are no shorter than Swing's.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    low_num, high_num = point_bounds(values, error_bound)
    abs_values = np.abs(values)
    # Python-float mirrors for the warm-up fold: ``tolist`` hands back
    # the exact same doubles, and plain-float arithmetic is IEEE-identical
    # to the float64 array ops of the chunked path.
    v_list = values.tolist()
    low_list = low_num.tolist()
    high_list = high_num.tolist()
    abs_list = abs_values.tolist()
    weight = acf_weight * error_bound

    lengths: list[int] = []
    seg_lo: list[float] = []
    seg_hi: list[float] = []

    window_start = 0
    anchor = v_list[0] if n else 0.0
    lo, hi = -math.inf, math.inf
    sum_dev = 0.0   # B: left fold of (value - anchor)
    sum_mass = 0.0  # left fold of |value|
    sum_run = 0.0   # A: left fold of run (exact small integers)
    position = 1
    scratch_dev = np.empty(MAX_CHUNK + 1)
    scratch_mass = np.empty(MAX_CHUNK + 1)
    scratch_run = np.empty(MAX_CHUNK + 1)
    while position < n:
        boundary = -1
        # Scalar warm-up: windows shorter than the vector break-even (the
        # common regime at tight bounds) never pay per-chunk numpy
        # overhead.  These are the very additions the seeded cumsums
        # below perform, so switching regimes cannot move a violation.
        warm_end = min(window_start + CAMEO_WARMUP,
                       window_start + max_length, n)
        while position < warm_end:
            run = position - window_start
            new_dev = sum_dev + (v_list[position] - anchor)
            new_mass = sum_mass + abs_list[position]
            new_run = sum_run + run
            budget = weight * new_mass
            new_lo = max(lo, (low_list[position] - anchor) / run,
                         (new_dev - budget) / new_run)
            new_hi = min(hi, (high_list[position] - anchor) / run,
                         (new_dev + budget) / new_run)
            if new_lo > new_hi:
                boundary = position  # the violator anchors the next window
                break
            lo, hi = new_lo, new_hi
            sum_dev, sum_mass, sum_run = new_dev, new_mass, new_run
            position += 1
        if boundary < 0:
            if position >= n:
                break  # open trailing window
            if position == window_start + max_length:
                boundary = position  # forced close: window is at capacity
        chunk = CAMEO_WARMUP
        while boundary < 0:
            end = min(position + chunk, window_start + max_length, n)
            c = end - position
            runs = np.arange(position - window_start,
                             end - window_start, dtype=np.float64)
            term_lo = (low_num[position:end] - anchor) / runs
            term_hi = (high_num[position:end] - anchor) / runs
            # Seeded cumsums: the exact float64 additions of the scalar
            # fold, in the same order (see prefix_sums).
            buf = scratch_dev[:c + 1]
            buf[0] = sum_dev
            np.subtract(values[position:end], anchor, out=buf[1:])
            dev = np.cumsum(buf)[1:]
            buf = scratch_mass[:c + 1]
            buf[0] = sum_mass
            buf[1:] = abs_values[position:end]
            mass = np.cumsum(buf)[1:]
            buf = scratch_run[:c + 1]
            buf[0] = sum_run
            buf[1:] = runs
            total_run = np.cumsum(buf)[1:]
            budget = weight * mass
            agg_lo = (dev - budget) / total_run
            agg_hi = (dev + budget) / total_run
            lo_env = np.maximum.accumulate(np.maximum(term_lo, agg_lo))
            hi_env = np.minimum.accumulate(np.minimum(term_hi, agg_hi))
            np.maximum(lo_env, lo, out=lo_env)
            np.minimum(hi_env, hi, out=hi_env)
            violation = lo_env > hi_env
            j = int(violation.argmax())
            if violation[j]:
                boundary = position + j  # the violator anchors the next window
                if j > 0:
                    lo = float(lo_env[j - 1])
                    hi = float(hi_env[j - 1])
            elif end == window_start + max_length and end < n:
                boundary = end  # forced close: the capacity point re-anchors
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
            else:
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
                sum_dev = float(dev[-1])
                sum_mass = float(mass[-1])
                sum_run = float(total_run[-1])
                position = end
                if position >= n:
                    break
                chunk = min(2 * chunk, MAX_CHUNK)
        if boundary < 0:
            break  # open trailing window (data exhausted mid-scan)
        lengths.append(boundary - window_start)
        seg_lo.append(lo)
        seg_hi.append(hi)
        window_start = boundary
        anchor = v_list[boundary]
        lo, hi = -math.inf, math.inf
        sum_dev = sum_mass = sum_run = 0.0
        position = boundary + 1
    lengths.append(n - window_start)
    seg_lo.append(lo)
    seg_hi.append(hi)
    _metric_inc("kernel.cameo.chunked")
    return (np.asarray(lengths, dtype=np.int64), np.asarray(seg_lo),
            np.asarray(seg_hi))
