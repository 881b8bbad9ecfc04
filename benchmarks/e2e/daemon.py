"""Launch ``repro-serve`` for the benchmark, optionally traced.

Usage: ``python daemon.py REPORT [--trace SPANS] -- <repro-serve flags>``

Runs the daemon's own entry point (``serve_from_args``) in this
process.  With ``--trace`` the layer wrappers are installed first, so
every request the daemon serves is recorded.  On SIGINT the daemon stops
as it would for a user; this launcher then writes its peak RSS to
REPORT and, when traced, the spans to SPANS.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from tracing import Recorder, calibrate, install, peak_rss_mb  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    report = own[0]
    spans = own[own.index("--trace") + 1] if "--trace" in own else None
    # a shell starts background jobs with SIGINT ignored, and Python then
    # leaves it ignored: restore Ctrl-C, the daemon's way to stop
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = None
    if spans is not None:
        recorder = Recorder()
        install(recorder)

    from repro.server.app import build_serve_parser, serve_from_args

    status = serve_from_args(build_serve_parser().parse_args(serve_args))
    with open(report, "w", encoding="utf-8") as stream:
        json.dump({"peak_rss_mb": peak_rss_mb()}, stream)
    if recorder is not None:
        recorder.dump(spans, calibrate())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
