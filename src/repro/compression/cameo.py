"""CAMEO-style autocorrelation-preserving line simplification.

CAMEO (Ruiyuan et al., see PAPERS.md) frames error-bounded compression
as greedy point elimination that bounds not just the pointwise
reconstruction error but the error *induced in downstream aggregate
statistics* — autocorrelation above all.  This implementation keeps the
repo's segment-filter vocabulary: a connected sweep grows one linear
segment at a time, and each candidate point contributes **two** linear
constraints on the segment slope ``s``:

* the Swing cone — ``|fit(k) - v_k| <= eps * |v_k|`` pointwise, and
* an aggregate-deviation budget — the running signed deviation of the
  line from the eliminated points must satisfy ``|s * A_i - B_i| <=
  W_i`` with ``A_i = sum(run_k)``, ``B_i = sum(v_k - anchor)`` and
  ``W_i = ACF_WEIGHT * eps * sum(|v_k|)``.  Bounding this drift bounds
  the perturbation of lag-window products, which is what keeps the
  reconstructed series' ACF close to the original's.

The first time the intersection empties the segment closes at the
previous point and the violator anchors the next one.  Only that
segmentation differs from Swing, so ``Cameo`` is a Swing subclass that
overrides the kernel it calls: fit, verify, split, reconstruct, the
payload layout and decode are Swing's.  The kernel
(``kernels.cameo_chase``) performs the exact same float64 folds as the
scalar loop ``ReferenceCameo`` in ``repro/reference.py`` (which folds the
three running sums point by point) with seeded cumsums and exact min/max
envelopes, so the two are pinned byte-identical
(``tests/compression/test_cameo.py``, ``test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.swing import Swing
from repro.registry import register_compressor

#: fraction of the pointwise budget granted to aggregate (ACF) drift
ACF_WEIGHT = 0.5


@register_compressor("CAMEO", lossy=True, grid=True,
                     description="ACF-preserving line simplification")
class Cameo(Swing):
    """Greedy line simplification bounding pointwise and ACF error."""

    name = "CAMEO"

    def _chase(self, values: np.ndarray, error_bound: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return kernels.cameo_chase(values, error_bound, ACF_WEIGHT,
                                   timestamps.MAX_SEGMENT_LENGTH)
