"""The BENCH snapshot envelope and the perf-trajectory gate built on it.

Every ``BENCH_*.json`` snapshot times two realizations of one semantics
(scalar vs vectorized kernels, serial vs pooled audits, dense vs
symbolic, direct vs served, ...) and shares one envelope:

* ``version`` — :data:`SNAPSHOT_VERSION`;
* ``experiment`` — a name registered in :data:`WRITERS`;
* ``params`` — the writer's JSON keyword arguments, so
  ``WRITERS[experiment](path, **params)`` re-measures the same workload;
* any number of row series; a row that carries a ``speedup`` is a gated
  point and must carry a ``key`` (and may carry a ``checksum``) beside
  it.  Rows without a ``speedup`` are context, not trajectory.

Writers persist snapshots with :func:`save_snapshot` and time their two
paths with :func:`time_paths`.  The gate reads only the envelope:

* :func:`extract_points` takes every keyed speedup row of a snapshot;
* :func:`compare_payloads` matches a fresh payload against a baseline
  point by point, with a *ratio* tolerance band — a fresh speedup must
  retain at least :data:`DEFAULT_MIN_RATIO` of the baseline's (ratios, not
  absolute seconds, so the gate is robust to hardware differences between
  the committing box and CI).  Checksums, where both sides carry them,
  must match exactly: the benchmark workloads are seeded, so a checksum
  drift is a correctness bug, not noise.
* :func:`regenerate_payload` re-runs the writer behind a baseline with
  the baseline's ``params``, for the CI lane's one-command flow.

Exit semantics (``repro trajectory``): any regression, missing row, or
checksum mismatch is a non-zero exit — the CI perf lane fails.
"""

from __future__ import annotations

import importlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ReproError
from repro.kb.serialize import save_json_snapshot

__all__ = [
    "DEFAULT_MIN_RATIO",
    "SNAPSHOT_VERSION",
    "WRITERS",
    "TrajectoryPoint",
    "TrajectoryIssue",
    "TrajectoryReport",
    "save_snapshot",
    "time_paths",
    "extract_points",
    "compare_payloads",
    "regenerate_payload",
    "render_report",
]

#: A fresh run must retain at least this fraction of the baseline speedup.
#: Deliberately loose: CI hardware differs from the box that committed the
#: baseline, and the gate is for *rot* (a 34x kernel silently going
#: scalar), not for 10% wobble.
DEFAULT_MIN_RATIO = 0.2

#: The envelope version every snapshot carries; the gate refuses others.
SNAPSHOT_VERSION = 1


def _lazy_writer(module: str, name: str) -> Callable[..., dict[str, Any]]:
    """``module.name``, imported on first call: the writers pull in the
    pool, symbolic and serving stacks, which importing the gate must not."""

    def write(path: str, **params: Any) -> dict[str, Any]:
        return getattr(importlib.import_module(module), name)(path, **params)

    return write


#: experiment -> the snapshot writer that regenerates it.  The only place
#: the gate names an experiment: a new snapshot needs one entry here.
WRITERS: dict[str, Callable[..., dict[str, Any]]] = {
    "E9": _lazy_writer("repro.bench.scaling", "write_scaling_snapshot"),
    "E7-audit": _lazy_writer("repro.bench.audit_speedup", "write_audit_snapshot"),
    "E4-weighted": _lazy_writer(
        "repro.bench.weighted_speedup", "write_weighted_snapshot"
    ),
    "shm": _lazy_writer("repro.bench.shm_speedup", "write_shm_snapshot"),
    "symbolic": _lazy_writer(
        "repro.bench.symbolic_speedup", "write_symbolic_snapshot"
    ),
    "serve": _lazy_writer("repro.bench.serve_load", "write_serve_snapshot"),
}


def save_snapshot(
    path: str, experiment: str, params: dict[str, Any], **series: Any
) -> dict[str, Any]:
    """Write ``series`` under the envelope to ``path``; returns the payload.

    ``params`` goes through JSON once so the returned payload equals what
    a reader loads back (tuples become lists).  Timestamps are
    deliberately absent: the snapshot diffs cleanly and git dates it.
    """
    payload = {
        "version": SNAPSHOT_VERSION,
        "experiment": experiment,
        "params": json.loads(json.dumps(params)),
        **series,
    }
    save_json_snapshot(path, payload)
    return payload


def time_paths(
    reference: tuple[str, Callable[[], Any]],
    candidate: tuple[str, Callable[[], Any]],
    checksum: Callable[[Any], Any],
    what: str,
) -> dict[str, Any]:
    """Time two ``(name, run)`` paths over one workload, reference first.

    Returns the row fields ``<name>_seconds`` for both, ``speedup``
    (reference over candidate) and ``checksum``; refuses results whose
    checksums differ, since a speedup between two answers is meaningless.
    """
    row: dict[str, Any] = {}
    digests = []
    for name, run in (reference, candidate):
        start = time.perf_counter()
        result = run()
        row[f"{name}_seconds"] = time.perf_counter() - start
        digests.append(checksum(result))
    if digests[0] != digests[1]:
        raise ReproError(
            f"{what}: {reference[0]}/{candidate[0]} checksum mismatch: "
            f"{digests[0]} != {digests[1]}"
        )
    reference_seconds, candidate_seconds = row.values()
    row["speedup"] = (
        reference_seconds / candidate_seconds
        if candidate_seconds > 0
        else float("inf")
    )
    row["checksum"] = digests[1]
    return row


@dataclass(frozen=True)
class TrajectoryPoint:
    """One comparable measurement: a keyed speedup plus optional checksum."""

    series: str
    key: str
    speedup: float
    checksum: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.series}[{self.key}]"


@dataclass(frozen=True)
class TrajectoryIssue:
    """One gate failure: a regression, a missing row, or a checksum drift."""

    kind: str  # "regression" | "missing" | "checksum-mismatch"
    label: str
    detail: str


@dataclass
class TrajectoryReport:
    """Outcome of one baseline/fresh comparison."""

    experiment: str
    compared: int = 0
    issues: list[TrajectoryIssue] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def _check_envelope(payload: dict[str, Any]) -> str:
    """The snapshot's registered experiment; refuses a malformed envelope."""
    experiment = payload.get("experiment")
    if experiment not in WRITERS:
        raise ReproError(
            f"unknown benchmark snapshot: experiment={experiment!r} "
            f"(expected one of {', '.join(sorted(WRITERS))})"
        )
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported {experiment} snapshot version: found {version!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    if not isinstance(payload.get("params"), dict):
        raise ReproError(
            f"{experiment} snapshot has no 'params': nothing records the "
            "workload its rows measured"
        )
    return experiment


def extract_points(payload: dict[str, Any]) -> list[TrajectoryPoint]:
    """Every keyed speedup row of a snapshot, in payload order.

    Rows without a ``speedup`` (an operator sweep's raw timings, say)
    are not part of the trajectory and are ignored; a ``speedup`` row
    without a ``key`` is refused.
    """
    _check_envelope(payload)
    points = []
    for series, rows in payload.items():
        if not isinstance(rows, list):
            continue
        for index, row in enumerate(rows):
            if not isinstance(row, dict) or "speedup" not in row:
                continue
            if "key" not in row:
                raise ReproError(f"{series} row {index} has a speedup but no key")
            points.append(
                TrajectoryPoint(
                    series=series,
                    key=str(row["key"]),
                    speedup=float(row["speedup"]),
                    checksum=(
                        str(row["checksum"])
                        if row.get("checksum") is not None
                        else None
                    ),
                )
            )
    return points


def compare_payloads(
    baseline: dict[str, Any], fresh: dict[str, Any]
) -> TrajectoryReport:
    """Gate a fresh snapshot payload against its committed baseline.

    Every baseline point must appear in the fresh payload, retain
    :data:`DEFAULT_MIN_RATIO` of the baseline speedup, and agree on the
    workload checksum when both sides carry one.  Extra fresh points (a
    later change widened the benchmark) are fine.
    """
    if baseline.get("experiment") != fresh.get("experiment"):
        raise ReproError(
            f"experiment mismatch: baseline is {baseline.get('experiment')!r}, "
            f"fresh is {fresh.get('experiment')!r}"
        )
    report = TrajectoryReport(experiment=str(baseline.get("experiment")))
    fresh_points = {
        (point.series, point.key): point for point in extract_points(fresh)
    }
    for base in extract_points(baseline):
        current = fresh_points.get((base.series, base.key))
        if current is None:
            report.issues.append(
                TrajectoryIssue(
                    kind="missing",
                    label=base.label,
                    detail="present in baseline, absent from fresh run",
                )
            )
            continue
        report.compared += 1
        ratio = (
            current.speedup / base.speedup if base.speedup > 0 else float("inf")
        )
        row = {
            "label": base.label,
            "baseline_speedup": base.speedup,
            "fresh_speedup": current.speedup,
            "ratio": ratio,
            "status": "ok",
        }
        if ratio < DEFAULT_MIN_RATIO:
            row["status"] = "regressed"
            report.issues.append(
                TrajectoryIssue(
                    kind="regression",
                    label=base.label,
                    detail=(
                        f"speedup {current.speedup:.2f}x is "
                        f"{ratio:.2f}x of baseline {base.speedup:.2f}x "
                        f"(floor {DEFAULT_MIN_RATIO:.2f})"
                    ),
                )
            )
        if (
            base.checksum is not None
            and current.checksum is not None
            and base.checksum != current.checksum
        ):
            row["status"] = "checksum-mismatch"
            report.issues.append(
                TrajectoryIssue(
                    kind="checksum-mismatch",
                    label=base.label,
                    detail=(
                        f"workload checksum changed: {base.checksum} -> "
                        f"{current.checksum} (seeded workload; this is a "
                        "correctness bug, not noise)"
                    ),
                )
            )
        report.rows.append(row)
    return report


def regenerate_payload(baseline: dict[str, Any]) -> dict[str, Any]:
    """Re-run the writer behind ``baseline`` with the baseline's ``params``.

    The writers require a path, so the fresh snapshot goes to a temporary
    directory that is removed afterwards.
    """
    writer = WRITERS[_check_envelope(baseline)]
    with tempfile.TemporaryDirectory() as directory:
        return writer(os.path.join(directory, "fresh.json"), **baseline["params"])


def render_report(report: TrajectoryReport) -> str:
    """Human-readable gate verdict."""
    lines = [
        f"perf trajectory — {report.experiment} "
        f"(floor {DEFAULT_MIN_RATIO:.2f}x of baseline)"
    ]
    for row in report.rows:
        lines.append(
            f"  {row['status']:<18} {row['label']}: "
            f"{row['baseline_speedup']:.2f}x -> {row['fresh_speedup']:.2f}x "
            f"(ratio {row['ratio']:.2f})"
        )
    if report.issues:
        lines.append(f"FAIL: {len(report.issues)} issue(s)")
        for issue in report.issues:
            lines.append(f"  {issue.kind}: {issue.label} — {issue.detail}")
    else:
        lines.append(f"OK: {report.compared} point(s) within tolerance")
    return "\n".join(lines)
