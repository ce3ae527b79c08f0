"""Zero-copy arena benchmark: worker warm-up and end-to-end audit sweeps.

PR 7 made pool workers *attach* read-only shared-memory views of each
(operator, vocabulary) distance matrix instead of rebuilding it per
process.  This module measures what that buys and snapshots it to
``BENCH_shm.json`` so the perf-trajectory gate can detect rot:

* :func:`measure_worker_warmup` — forks real child processes that run
  exactly the pool's ``_init_worker`` work (unpickle the roster, build
  the per-operator batched state) twice: once rebuilding every distance
  matrix locally, once attaching the parent's arena.  Each child reports
  wall-clock seconds and its own peak RSS
  (``resource.getrusage(RUSAGE_SELF)``), so the row captures both the
  startup-latency win and the private-memory win.
* :func:`measure_shm_audit` — times the full ``run_audit`` sweep at
  ``jobs=N`` with the arena on vs off, and enforces that both matrices
  are checksum-equal to the ``jobs=1`` serial harness
  (:func:`repro.bench.audit_speedup.matrix_checksum`) — the arena is a
  transport optimisation, never a semantics change.

Workloads are seeded and timestamps deliberately absent, matching every
other ``BENCH_*.json``: the snapshot diffs cleanly and git dates it.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import time
from multiprocessing import get_context
from typing import Optional, Sequence

from repro.bench.audit_speedup import matrix_checksum
from repro.bench.experiments import standard_operators
from repro.distances import kernels
from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.postulates.axioms import ALL_AXIOMS, Axiom
from repro.postulates.matrix import compute_matrix

__all__ = [
    "measure_worker_warmup",
    "measure_shm_audit",
    "write_shm_snapshot",
]


def _warmup_child(conn, roster_blob: bytes, directory) -> None:
    """Time one worker's state build, rebuilt or attached, then report.

    Runs in a forked child so the build cost (and its RSS) is paid in a
    fresh address space, exactly like a pool worker.  The timed region
    mirrors ``repro.engine.pool._init_worker``: attach the arena (when
    given), unpickle the roster, build the batched per-operator state.
    A row sum over each matrix faults the mapped pages in, so the
    attach path's RSS is honest rather than a lazy-mapping artifact.
    """
    from repro.engine.pool import _build_worker_state
    from repro.engine.shm import ArenaView

    start = time.perf_counter()
    arena = ArenaView.attach(directory) if directory is not None else None
    vocabulary, operators = pickle.loads(roster_blob)
    state = _build_worker_state(vocabulary, operators, arena)
    touched = 0
    for operator in state["operators"]:
        matrix = operator.matrix
        if matrix is not None:
            touched += int(matrix[0].sum())
    elapsed = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send((elapsed, peak_rss_kib, touched))
    conn.close()
    # Interpreter teardown would race SharedMemory.__del__ against the
    # numpy views still aliasing its mmap and spray harmless-but-noisy
    # BufferErrors; the measurement is already delivered, so skip it.
    os._exit(0)


def _run_warmup_child(roster_blob: bytes, directory) -> tuple[float, int]:
    context = get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_warmup_child, args=(child_conn, roster_blob, directory)
    )
    process.start()
    child_conn.close()
    try:
        elapsed, peak_rss_kib, _ = parent_conn.recv()
    finally:
        parent_conn.close()
        process.join()
    if process.exitcode != 0:
        raise ReproError(
            f"warmup child exited with code {process.exitcode}"
        )
    return float(elapsed), int(peak_rss_kib)


def measure_worker_warmup(atoms: int = 12, repeats: int = 3) -> dict:
    """One benchmark row: worker start-up cost, rebuild vs arena attach.

    Publishes the standard-operator matrices once (the parent-side cost a
    real audit pays once per sweep), then forks ``repeats`` children down
    each path and keeps the best time per mode — warm-up is a latency
    number, and the minimum is the least-noisy estimator of it.
    """
    from repro.engine.pool import _open_arena, _publish_audit_arrays

    vocabulary = Vocabulary([chr(ord("a") + index) for index in range(atoms)])
    operators = standard_operators()
    roster_blob = pickle.dumps((vocabulary, operators))
    start = time.perf_counter()
    arena = _open_arena(
        roster_blob,
        lambda new: _publish_audit_arrays(new, vocabulary, operators, ()),
    )
    publish_seconds = time.perf_counter() - start
    if arena is None:
        raise ReproError(
            f"no arena at atoms={atoms}: every matrix fell under the "
            "sharing threshold (or numpy is unavailable)"
        )
    try:
        directory = arena.directory()
        rebuild = [_run_warmup_child(roster_blob, None) for _ in range(repeats)]
        attach = [
            _run_warmup_child(roster_blob, directory) for _ in range(repeats)
        ]
        shm_segments = len(directory.segments)
        shm_bytes = directory.total_bytes
    finally:
        arena.close()
    rebuild_seconds = min(seconds for seconds, _ in rebuild)
    attach_seconds = min(seconds for seconds, _ in attach)
    return {
        "atoms": atoms,
        "operators": [operator.name for operator in operators],
        "repeats": repeats,
        "publish_seconds": publish_seconds,
        "rebuild_seconds": rebuild_seconds,
        "attach_seconds": attach_seconds,
        "speedup": (
            rebuild_seconds / attach_seconds
            if attach_seconds > 0
            else float("inf")
        ),
        "rebuild_peak_rss_kib": max(rss for _, rss in rebuild),
        "attach_peak_rss_kib": max(rss for _, rss in attach),
        "shm_segments": shm_segments,
        "shm_bytes": shm_bytes,
    }


#: Default axiom count for the audit row.  At 12 atoms every verdict is
#: sampled and each scenario costs the same with or without the arena, so
#: the row keeps the evaluated work small enough that worker warm-up —
#: the cost the arena removes — stays visible in the wall clock.
AUDIT_BENCH_AXIOMS = 1


def measure_shm_audit(
    atoms: int = 12,
    max_scenarios: int = 6,
    jobs: int = 4,
    rng: int = 0,
    axioms: Optional[Sequence[Axiom]] = None,
) -> dict:
    """One benchmark row: the matrix-batched roster at ``jobs=N``, arena
    on vs arena off, both checksum-equal to the serial harness.

    Only operators with a batching contract at this vocabulary are swept
    — they are the ones whose distance matrices the arena carries; the
    delegated operators pay per-scenario set semantics either way and at
    12 atoms would drown the transport difference in unrelated work.
    The scenario count is deliberately small: at 12+ atoms the sweep is
    sampled either way, and a small count makes per-worker warm-up the
    dominant term — which is precisely the cost the arena removes.
    """
    from repro.engine.batched import batching_contract

    chosen = list(
        ALL_AXIOMS[:AUDIT_BENCH_AXIOMS] if axioms is None else axioms
    )
    vocabulary = Vocabulary([chr(ord("a") + index) for index in range(atoms)])
    operators = [
        operator
        for operator in standard_operators()
        if batching_contract(operator, vocabulary) is not None
    ]
    if not operators:
        raise ReproError(
            f"no matrix-batched operators at atoms={atoms}; nothing for "
            "the arena to carry"
        )
    serial = compute_matrix(
        operators, vocabulary, chosen, max_scenarios=max_scenarios, rng=rng, jobs=1
    )
    checksum = matrix_checksum(serial)
    start = time.perf_counter()
    with_shm = compute_matrix(
        operators,
        vocabulary,
        chosen,
        max_scenarios=max_scenarios,
        rng=rng,
        jobs=jobs,
        shm=True,
    )
    shm_seconds = time.perf_counter() - start
    start = time.perf_counter()
    without_shm = compute_matrix(
        operators,
        vocabulary,
        chosen,
        max_scenarios=max_scenarios,
        rng=rng,
        jobs=jobs,
        shm=False,
    )
    no_shm_seconds = time.perf_counter() - start
    for label, matrix in (("shm", with_shm), ("no-shm", without_shm)):
        other = matrix_checksum(matrix)
        if other != checksum:
            raise AssertionError(
                f"{label} matrix diverged from the serial harness: "
                f"{other} != {checksum}"
            )
    return {
        "atoms": atoms,
        "max_scenarios": max_scenarios,
        "jobs": jobs,
        "operators": [operator.name for operator in operators],
        "axioms": len(chosen),
        "shm_seconds": shm_seconds,
        "no_shm_seconds": no_shm_seconds,
        "speedup": (
            no_shm_seconds / shm_seconds if shm_seconds > 0 else float("inf")
        ),
        "checksum": checksum,
    }


def write_shm_snapshot(
    path: str = "BENCH_shm.json",
    atoms: int = 12,
    max_scenarios: int = 6,
    jobs: int = 4,
    rng: int = 0,
    repeats: int = 3,
    axioms: Optional[Sequence[Axiom]] = None,
) -> dict:
    """Emit the shared-memory snapshot: one warm-up row, one audit row."""
    payload = {
        "experiment": "shm",
        "numpy": kernels.HAS_NUMPY,
        "cpu_count": os.cpu_count(),
        "warmup": [measure_worker_warmup(atoms=atoms, repeats=repeats)],
        "audit": [
            measure_shm_audit(
                atoms=atoms,
                max_scenarios=max_scenarios,
                jobs=jobs,
                rng=rng,
                axioms=axioms,
            )
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
