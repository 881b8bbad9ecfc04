"""The grid_cold working process: set up, then run timed grid reps.

Usage: ``python grid_worker.py SEED LENGTH WARM_LENGTH WORKDIR [SPANS]``
(LENGTH ``0`` means the paper's length).

Set-up is the imports plus one untimed warm-up grid at WARM_LENGTH,
which pays the first-call costs of every codec, model and detector.
The worker then prints ``ready`` and reads one command from stdin:
``exit``, or ``go REPS`` to run that many timed reps and print one
JSON line with their times, cell counts, record digests and this
process's peak RSS.  With SPANS the layer wrappers are installed before
any work and the reps' spans are written there.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from tracing import Recorder, calibrate, install, peak_rss_mb  # noqa: E402

def grid_rep(requests, workdir: str, recorder: Recorder | None
             ) -> tuple[float, int, int, str]:
    """One cold rep in a fresh cache dir: (seconds, cells answered,
    cells expected, record digest)."""
    from repro.api.service import ApiService
    from repro.cli import _records_digest
    from repro.core.config import EvaluationConfig

    cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=workdir)
    config = EvaluationConfig(dataset_length=None, cache_dir=cache_dir,
                              simple_seeds=1, deep_seeds=1, keep_going=True)
    records = []
    frame = (recorder.root("rep") if recorder is not None
             else contextlib.nullcontext())
    start = time.perf_counter()
    with frame:
        service = ApiService(config)
        for request in requests:
            records += service.grid(request)[0]
    seconds = time.perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    expected = sum(len(service.grid_requests(r)) for r in requests)
    return seconds, len(records), expected, _records_digest(records)


def main(argv: list[str]) -> int:
    seed, length, warm_length = (int(value) for value in argv[:3])
    workdir = argv[3]
    spans = argv[4] if len(argv) > 4 else None
    recorder = None
    if spans is not None:
        recorder = Recorder()
        install(recorder)

    from payloads import grid_requests

    grid_rep(grid_requests(seed, warm_length), workdir, None)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if command[:1] != ["go"]:
        return 0
    requests = grid_requests(seed, length or None)
    if recorder is not None:
        recorder.clear()
    reps = [grid_rep(requests, workdir, recorder)
            for _ in range(int(command[1]))]
    print(json.dumps({"reps": reps, "peak_rss_mb": peak_rss_mb()}),
          flush=True)
    if recorder is not None:
        recorder.dump(spans, calibrate())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
