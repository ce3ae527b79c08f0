"""Smoke test of the end-to-end benchmark: every workload at tiny scale.

Checks that each workload's untraced and traced runs pass their
oracles, that together they emit every metric ``BENCHMARK.json`` names
(with its unit), that a trace file parses as trace-event JSON, and that
the command refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import auditing  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
from common import ROOT, write_trace  # noqa: E402

SPEC = run.load_spec()

TINY = {
    "serve-read": (serving, replace(serving.SERVE_READ, rate_per_conn=80.0)),
    "serve-write": (serving, replace(serving.SERVE_WRITE, atoms=4, session_length=6)),
    "audit-dense": (auditing, replace(auditing.AUDIT_DENSE, atoms=2, max_scenarios=50)),
    "audit-symbolic": (auditing, replace(auditing.AUDIT_SYMBOLIC, atoms=17, max_scenarios=1,
                                         children=2)),
}


def test_every_workload_passes_its_oracle_and_emits_every_metric(tmp_path):
    layer_metrics: set[str] = set()
    for name in run.WORKLOADS:
        module, workload = TINY[name]
        for trace in (False, True):
            runner = module.run_traced if trace else module.run_untraced
            result = runner(workload, 7, 0.25, tmp_path / name / str(trace))
            assert result["correct"], name
            assert result["failed"] == 0 and result["attempted"] > 0, name
            readings = run.with_units(result, SPEC, trace)
            units = {entry["name"]: entry["unit"] for entry in
                     SPEC["per_layer" if trace else "end_to_end"]}
            assert {key: reading["unit"] for key, reading in readings.items()} == units
            assert all(math.isfinite(r["value"]) and r["value"] >= 0 for r in readings.values())
            if not trace:
                assert readings["p50_ms"]["value"] > 0, name
                continue
            layer_metrics |= set(result["metrics"])
            path = tmp_path / f"{name}.trace.json"
            write_trace(path, result["spans"])
            events = json.loads(path.read_text())["traceEvents"]
            spans = [event for event in events if event["ph"] == "X"]
            assert spans and all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in spans)
    assert layer_metrics == {entry["name"] for entry in SPEC["per_layer"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve-read", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
