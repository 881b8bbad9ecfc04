"""Name-based access to the compression methods and the paper's error bounds.

Importing this module imports every codec module, whose
``@register_compressor`` decorators populate the central plugin
registry (``repro.registry``); the tuples below are queries over it.
``LOSSY_METHODS`` keeps meaning the paper's three Section 3.2 methods —
``EvaluationConfig`` defaults and every cached digest are pinned to
them — while ``GRID_METHODS`` also carries the registered extensions
(CAMEO, LFZip) selectable per request, and ``STREAMING_METHODS`` the
subset with an online encoder for ``/v1/stream``.
"""

from __future__ import annotations

from repro import registry as _registry
from repro.compression.base import Compressor
from repro.compression.pmc import PMC
from repro.compression.swing import Swing
from repro.compression.sz import SZ
from repro.compression.cameo import Cameo
from repro.compression.lfzip import LFZip
from repro.compression.ppa import PPA
from repro.compression.gorilla import Gorilla

# The 13 relative pointwise error bounds of Section 3.2, denser below 0.1.
PAPER_ERROR_BOUNDS = (
    0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8,
)

#: the paper's three lossy methods (the default evaluation grid)
LOSSY_METHODS = _registry.compressor_names(lossy=True, paper=True)
#: every grid-selectable error-bounded method, extensions included
GRID_METHODS = _registry.compressor_names(lossy=True, grid=True)
#: methods with an online encoder for live ``/v1/stream`` sessions
STREAMING_METHODS = _registry.compressor_names(streaming=True)


def make(name: str) -> Compressor:
    """Instantiate a compressor by its paper name."""
    return _registry.make_compressor(name)
