"""Shared plumbing of the end-to-end benchmark.

Paths inside the checkout, child-process handling (spawn with the
checkout's ``src`` on the import path and pinned to given CPUs, reap
with resource usage),
order statistics, and the two trace outputs: Chrome trace-event JSON
(opens in Perfetto and ``chrome://tracing``) and the per-span self-time
table written to ``layers.json``.

Every span in this package is a plain dict::

    {"id": str, "parent": str | None, "name": str, "start": float,
     "dur": float, "proc": str, "args": dict}

``start`` and ``dur`` are seconds on ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and therefore shared by the benchmark, the
server and the audit children, so spans from all of them line up.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Optional, Sequence

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for stores, journals and temp files; removed after a run.
WORK_ROOT = ROOT / ".bench_work"

#: How long a child may take to exit once it should before it is killed.
CHILD_TIMEOUT_S = 10.0


def source_present() -> bool:
    """Whether the checkout holds the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(tmp_dir: Path) -> dict:
    """Environment for a child: the checkout's ``src`` first on the path,
    temp files inside the checkout, and no ``REPRO_*`` overrides, so the
    child runs the package's default configuration."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH", "")) if part
    )
    env["TMPDIR"] = str(tmp_dir)
    return env


def spawn_python(args: Sequence[str], tmp_dir: Path, cpus: Sequence[int] = ()) -> subprocess.Popen:
    """Start ``python <args>`` from the checkout root with piped stdout,
    restricted to ``cpus`` (the caller's CPUs when empty) from its first
    instruction: a child inherits the CPU affinity of the thread that
    starts it, so the caller's thread is pinned around the start."""
    original = speed.cpus()
    speed.pin(cpus)
    try:
        return subprocess.Popen(
            [sys.executable, *args],
            cwd=str(ROOT),
            env=child_env(tmp_dir),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
    finally:
        speed.pin(original)


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> float:
    """Wait for ``proc`` to exit (killing it after ``timeout``); returns
    the peak resident set in MiB of the child and every descendant it
    waited for, from ``wait4`` — no ``/proc`` reads needed."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.stdout is not None:
                proc.stdout.close()
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            # os.kill, not proc.kill: Popen polls first and could reap the
            # child before wait4 reads its resource usage.
            os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.005)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def share_pct(part: float, whole: float) -> float:
    """``part`` as a percentage of ``whole`` (0 when ``whole`` is 0)."""
    return 100.0 * part / whole if whole > 0 else 0.0


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


# -- spans ------------------------------------------------------------------------


def spans_from_records(records: Iterable, proc: str) -> list[dict]:
    """Convert ``repro.obs`` span records (objects or exported dicts)."""
    spans = []
    for record in records:
        data = record if isinstance(record, dict) else record.to_dict()
        parent = data["parent_id"]
        spans.append(
            {
                "id": f"{proc}:{data['span_id']}",
                "parent": None if parent is None else f"{proc}:{parent}",
                "name": data["name"],
                "start": data["start"],
                "dur": data["duration"],
                "proc": proc,
                "args": dict(data.get("attrs") or {}),
            }
        )
    return spans


def _covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end)) for start, end in parts if end > low and start < high
    )
    total = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Sequence[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    A span's children are the spans naming it as parent plus, for a
    client request, the server job matched to it (``args["job"]``), so a
    request's self time is what the server's worker did not account for.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        interval = (span["start"], span["start"] + span["dur"])
        if span["parent"] in by_id:
            children[span["parent"]].append(interval)
    for span in spans:
        job = by_id.get(span["args"].get("job"))
        if job is not None:
            children[span["id"]].append((job["start"], job["start"] + job["dur"]))
    return {
        span["id"]: span["dur"]
        - _covered((span["start"], span["start"] + span["dur"]), children[span["id"]])
        for span in spans
    }


def layer_table(spans: Sequence[dict]) -> dict[str, dict]:
    """Per span name: count, total and self time, and their medians (ms)."""
    own = self_times(spans)
    grouped: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    table = {}
    for name in sorted(grouped):
        members = grouped[name]
        totals = [span["dur"] * 1e3 for span in members]
        selves = [own[span["id"]] * 1e3 for span in members]
        table[name] = {
            "count": len(members),
            "total_ms": sum(totals),
            "self_ms": sum(selves),
            "p50_ms": median(totals),
            "self_p50_ms": median(selves),
        }
    return table


def write_trace(path: Path, spans: Sequence[dict]) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete ``X`` events).

    Each source process becomes one trace process.  Span trees are
    packed onto thread lanes so that spans sharing a lane always nest —
    overlapping client requests land on separate lanes.
    """
    if not spans:
        events: list[dict] = []
    else:
        origin = min(span["start"] for span in spans)
        by_id = {span["id"]: span for span in spans}

        def root_of(span: dict) -> dict:
            while span["parent"] in by_id:
                span = by_id[span["parent"]]
            return span

        pids = {proc: index + 1 for index, proc in enumerate(sorted({s["proc"] for s in spans}))}
        lane_ends: dict[str, list[float]] = defaultdict(list)
        lane_of: dict[str, int] = {}
        for span in sorted(spans, key=lambda item: item["start"]):
            root = root_of(span)
            if root["id"] not in lane_of:
                ends = lane_ends[root["proc"]]
                end = root["start"] + root["dur"]
                for lane, lane_end in enumerate(ends):
                    if lane_end <= root["start"]:
                        ends[lane] = end
                        lane_of[root["id"]] = lane
                        break
                else:
                    ends.append(end)
                    lane_of[root["id"]] = len(ends) - 1
        events = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": proc}}
            for proc, pid in pids.items()
        ]
        for span in spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "ph": "X",
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": span["dur"] * 1e6,
                    "pid": pids[span["proc"]],
                    "tid": lane_of[root_of(span)["id"]],
                    "args": span["args"],
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")


def merge_layers(path: Path, workload: str, table: dict) -> None:
    """Add one workload's layer table to ``layers.json`` (read-modify-write)."""
    data: dict = {}
    if path.is_file():
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    data[workload] = table
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json_line(stream) -> Optional[dict]:
    """Next JSON object line from a child's stdout, or ``None`` on EOF.

    Blocks; ``run.py``'s watchdog alarm bounds the wait."""
    for line in stream:
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None
