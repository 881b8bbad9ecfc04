"""``repro-serve``: a batching evaluation service over the grid runtime.

The server package holds the third frontend of the typed API
(:mod:`repro.api`) — next to the :class:`~repro.core.scenario.Evaluation`
façade and the ``repro-eval`` CLI:

- :mod:`repro.server.app` — the :class:`ReproServer` daemon
  (``ThreadingHTTPServer``-based, stdlib only) and its ``serve`` entry
  point;
- :mod:`repro.server.batching` — the :class:`MicroBatcher` that coalesces
  concurrent requests into single task-graph submissions;
- :mod:`repro.server.client` — the :class:`ReproClient` typed test
  client (``http.client``-based);
- :mod:`repro.server.loadgen` — the open-loop load generator and SLO
  harness behind ``repro-eval loadgen`` (Poisson arrivals, latency
  percentiles, shed/error accounting, ``BENCH_serve.json``).
"""

from repro.server.app import ReproServer, serve
from repro.server.batching import MicroBatcher
from repro.server.client import ReproClient, ServerError
from repro.server.loadgen import (LoadgenConfig, SloConfig,
                                  check_serve_report, run_loadgen,
                                  self_hosted)

__all__ = [
    "LoadgenConfig",
    "MicroBatcher",
    "ReproClient",
    "ReproServer",
    "ServerError",
    "SloConfig",
    "check_serve_report",
    "run_loadgen",
    "self_hosted",
    "serve",
]
