"""BENCHMARK.json agrees with the code, and all four workloads run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import layers
import run


def test_benchmark_json_names_what_the_runs_report():
    with open(run.BENCHMARK, encoding="utf-8") as stream:
        benchmark = json.load(stream)
    assert [w["name"] for w in benchmark["workloads"]] == \
        list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.PER_LAYER]
    setup = benchmark["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"])


def test_quick_smoke_of_all_four_workloads():
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick",
         "--seconds", "2"], cwd=run.ROOT, capture_output=True, text=True,
        timeout=120)
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for name, _ in run.END_TO_END:
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0
        for name, _, _ in layers.PER_LAYER:
            assert f"{workload}.{name}" in result["metrics"]
        assert result["metrics"][f"{workload}.unattributed_pct"][
            "value"] <= 10.0
    assert elapsed < 60.0
