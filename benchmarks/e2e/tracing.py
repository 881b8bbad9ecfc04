"""Outside-in span recording for the e2e benchmark's traced runs.

The program under test is not edited: every layer is timed by replacing
one of its public callables with a thin wrapper *in the working process*
(the grid worker or the daemon launcher) before any work starts.  Spans
live in memory and are written out once, at exit, so the program pays
two clock reads and a list append per traced call.

A span is ``[name, parent, start, end, tag]``: ``parent`` is the span
open on the same thread when the call began (``None`` for a root), and
``tag`` carries what a layer metric needs besides time — the digest of
a feature input, a cache hit, or the submits a batch served (the one
cross-thread edge: a handler thread blocks in ``MicroBatcher.submit``
while the batcher thread runs the batch).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
import threading
import time

#: the one clock of every span and phase mark; CLOCK_MONOTONIC is
#: system-wide on Linux, so the benchmark can cut a daemon's spans to
#: the window it measured from another process
CLOCK = time.monotonic

#: cache keys of stream-session snapshots belong to the sessions layer
SESSION_PREFIX = "stream-session/"

#: spans that frame work but belong to no layer: their self time is the
#: "unattributed" remainder of the layer table
ROOT_NAMES = ("rep", "connection")


class Recorder:
    """In-memory span sink shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: seconds of bookkeeping beyond the per-span cost (hashing
        #: feature inputs), added to the overhead estimate
        self.extra_s = 0.0
        self._local = threading.local()
        #: id(request) -> its submit span, while the submit blocks
        self._submits: dict[int, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, name_of=None, before=None, after=None):
        """``fn`` wrapped so that each call records one span.

        ``name_of(args)`` may rename a call; ``before(record, args)`` and
        ``after(record, args, result)`` fill its tag (``result`` is
        ``None`` when the call raised).
        """
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name if name_of is None else name_of(args),
                      stack[-1] if stack else None, 0.0, 0.0, None]
            if before is not None:
                before(record, args)
            spans.append(record)
            stack.append(record)
            result = None
            record[2] = CLOCK()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[3] = CLOCK()
                stack.pop()
                if after is not None:
                    after(record, args, result)

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-owned span around work it drives itself."""
        stack = self._stack()
        record = [name, stack[-1] if stack else None, CLOCK(), 0.0, None]
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[3] = CLOCK()
            stack.pop()

    def clear(self) -> None:
        self.spans.clear()
        self.extra_s = 0.0

    # -- layer-specific tags --------------------------------------------------

    def digest_input(self, record: list, args: tuple) -> None:
        """Tag a feature computation with a digest of its input."""
        start = time.perf_counter()
        digest = hashlib.blake2b(memoryview(args[0]).tobytes(),
                                 digest_size=12)
        digest.update(repr(args[1:]).encode())
        record[4] = digest.hexdigest()
        self.extra_s += time.perf_counter() - start

    def open_submit(self, record: list, args: tuple) -> None:
        self._submits[id(args[1])] = record

    def close_submit(self, record: list, args: tuple, result) -> None:
        self._submits.pop(id(args[1]), None)

    def link_batch(self, record: list, args: tuple) -> None:
        """Tag a batch with the (still blocked) submits it serves."""
        record[4] = [self._submits.get(id(request)) for request in args[1]]

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, per_span_s: float) -> None:
        """Write the spans (parents and links as indices) and the
        calibrated per-span cost to ``path`` as one JSON document."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = []
        for name, parent, start, end, tag in self.spans:
            if isinstance(tag, list):
                tag = [index[id(s)] for s in tag
                       if s is not None and id(s) in index]
            rows.append([name, -1 if parent is None else index[id(parent)],
                         start, end, tag])
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": rows, "per_span_s": per_span_s,
                       "extra_s": self.extra_s}, stream)


def calibrate(calls: int = 20_000) -> float:
    """Seconds one traced call adds, measured on a no-op (best of 3) with
    every hook set, so the estimate holds for the costliest wrapper."""
    def noop() -> None:
        return None

    traced = Recorder().span("calibration", noop,
                             name_of=lambda args: "calibration",
                             before=lambda record, args: None,
                             after=lambda record, args, result: None)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (best(traced) - best(noop)) / calls)


def peak_rss_mb() -> float:
    """This process's high-water resident set (``VmHWM``), in MB.

    Not ``ru_maxrss``: Linux carries that across ``execve``, so a child
    would report its parent's peak when the parent was larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _session_name(layer: str, session_layer: str):
    """Name a cache call by its key: session snapshots are their own layer."""
    def name_of(args: tuple) -> str:
        key = args[1]
        return session_layer if key.startswith(SESSION_PREFIX) else layer
    return name_of


def _probe_hit(record: list, args: tuple, result) -> None:
    record[4] = bool(result)


def _get_hit(record: list, args: tuple, result) -> None:
    default = args[2] if len(args) > 2 else None
    record[4] = result is not default


def install(recorder: Recorder) -> None:
    """Wrap every layer's public callables.

    Class methods are wrapped once, on the class of the MRO that defines
    them, so subclasses sharing an implementation share one wrapper.
    Module functions are wrapped *as bound in the calling module* (the
    name the program actually looks up at call time).
    """
    import socketserver
    from http.server import BaseHTTPRequestHandler

    from repro import registry
    from repro.api.service import ApiService
    from repro.compression.streaming import STREAMING_ALGORITHMS
    from repro.core.cache import DiskCache
    from repro.forecasting.rolling import STREAM_MODELS
    from repro.runtime.scheduler import Scheduler
    from repro.server.batching import MicroBatcher
    from repro.server.sessions import SessionManager

    patches: list[tuple] = []
    seen: set[tuple] = set()

    def method(cls: type, attr: str, name: str, **hooks) -> None:
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        if (owner, attr) not in seen:
            seen.add((owner, attr))
            patches.append((owner, attr, name, hooks))

    def function(module_name: str, attr: str, name: str, **hooks) -> None:
        module = importlib.import_module(module_name)
        if (module, attr) not in seen:
            seen.add((module, attr))
            patches.append((module, attr, name, hooks))

    function("repro.runtime.jobs", "load", "datasets.load")
    for codec in registry.compressor_names():
        cls = registry.compressor_info(codec).factory
        method(cls, "compress", "compression.compress")
        if hasattr(sys.modules[cls.__module__], "gzip_bytes"):
            function(cls.__module__, "gzip_bytes", "compression.gzip")
    for cls in STREAMING_ALGORITHMS.values():
        method(cls, "extend", "streaming.extend")
        method(cls, "flush", "streaming.flush")
    for module_name in ("repro.runtime.jobs", "repro.tasks.anomaly"):
        function(module_name, "compute_all", "features.compute",
                 before=recorder.digest_input)
    for model in registry.model_names(task="forecasting"):
        cls = registry.model_info(model).factory
        method(cls, "fit", "forecasting.fit")
        method(cls, "predict", "forecasting.predict")
    for cls in STREAM_MODELS.values():
        method(cls, "update", "rolling.update")
        method(cls, "forecast", "rolling.forecast")
    function("repro.runtime.jobs", "evaluate_windows", "metrics.score")
    function("repro.api.service", "transformation_error", "metrics.te")
    for detector in registry.model_names(task="anomaly"):
        method(registry.model_info(detector).factory, "detect",
               "tasks.detect")
    method(Scheduler, "run", "runtime.run")
    method(DiskCache, "contains", "cache.probe",
           name_of=_session_name("cache.probe", "sessions.probe"),
           after=_probe_hit)
    method(DiskCache, "get", "cache.get",
           name_of=_session_name("cache.get", "sessions.restore"),
           after=_get_hit)
    method(DiskCache, "put", "cache.put",
           name_of=_session_name("cache.put", "sessions.snapshot"))
    method(DiskCache, "remove", "cache.remove",
           name_of=_session_name("cache.remove", "sessions.remove"))
    method(ApiService, "compress_batch", "api.batch",
           before=recorder.link_batch)
    method(ApiService, "forecast_batch", "api.batch",
           before=recorder.link_batch)
    function("repro.api.service", "raw_gz_size", "api.raw_size")
    method(BaseHTTPRequestHandler, "handle_one_request", "server.http")
    method(MicroBatcher, "submit", "server.queue",
           before=recorder.open_submit, after=recorder.close_submit)
    for action in ("open", "push", "close"):
        method(SessionManager, action, f"sessions.{action}")
    method(socketserver.ThreadingMixIn, "process_request_thread",
           "connection")

    for owner, attr, name, hooks in patches:
        original = vars(owner)[attr]
        setattr(owner, attr, recorder.span(name, original, **hooks))
