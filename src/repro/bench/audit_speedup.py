"""E7 audit engine benchmark: serial vs parallel postulate matrices.

Times :func:`repro.postulates.matrix.compute_matrix` twice on identical
inputs — ``jobs=1`` (the in-process harness loop) and ``jobs=N`` (the
process-pool batched engine) — asserts the two matrices are checksum-equal,
and snapshots the speedup to ``BENCH_e7_audit.json`` so future PRs can
track the trajectory.

The speedup here is *not* core-count parallelism (the verdicts are
identical on a single-core box): the ``jobs>1`` path evaluates whole
chunks as numpy bitmask formulas over a lazily-filled apply table, reuses
per-ψ key vectors across every scenario that mentions ψ, and derives all
distances from one shared matrix per operator — while ``jobs=1``
re-derives per scenario.  Extra workers then overlap chunk evaluation on
machines that have the cores.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional, Sequence

from repro import obs
from repro.bench.experiments import standard_operators
from repro.bench.trajectory import save_snapshot, time_paths
from repro.distances import kernels
from repro.engine.batched import bits_of_model_set
from repro.engine.pool import run_audit
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.postulates.axioms import ALL_AXIOMS, Axiom
from repro.postulates.counterexample import CheckResult
from repro.postulates.matrix import SatisfactionMatrix, compute_matrix
from repro.symbolic.sets import SymbolicModelSet

__all__ = [
    "matrix_checksum",
    "measure_audit_speedup",
    "write_audit_snapshot",
]


def _set_record(model_set: ModelSet | SymbolicModelSet) -> int | list:
    """A model set in canonical form: a dense set's bit-vector; a symbolic
    set's sorted BDD cube cover, which — unlike node ids — does not
    depend on the manager that built it."""
    if isinstance(model_set, SymbolicModelSet):
        return sorted(model_set.manager.iter_cubes(model_set.node))
    return bits_of_model_set(model_set)


def _result_record(result: CheckResult) -> list:
    record = [result.holds, result.scenarios_checked, result.exhaustive]
    counterexample = result.counterexample
    if counterexample is not None:
        record.append(
            [
                counterexample.axiom,
                counterexample.operator,
                sorted(
                    (name, _set_record(role))
                    for name, role in counterexample.roles.items()
                ),
                sorted(
                    (name, _set_record(observed))
                    for name, observed in counterexample.observed.items()
                ),
            ]
        )
    return record


def matrix_checksum(matrix: SatisfactionMatrix) -> str:
    """Order-independent digest of every cell's full verdict.

    Covers hold/fail, scenario counts, exhaustiveness, and the complete
    counterexample content (roles and observed sets as bit-vectors, or
    as BDD cube covers for symbolic sets above 16 atoms), so two
    matrices share a checksum iff the audits are result-identical.
    """
    payload = {
        operator: {
            axiom: _result_record(result)
            for axiom, result in row.items()
        }
        for operator, row in matrix.results.items()
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def measure_audit_speedup(
    atoms: int = 2,
    max_scenarios: int = 5_000,
    jobs: int = 4,
    rng: int = 0,
    axioms: Sequence[Axiom] = ALL_AXIOMS,
) -> dict:
    """One benchmark row: the full standard-operator matrix, serial vs
    parallel, with checksum equality enforced and the engine's cache
    counters attached (nonzero hits are part of the engine's contract —
    recurring ψ within and across chunks must be served from cache)."""
    vocabulary = Vocabulary([chr(ord("a") + index) for index in range(atoms)])
    operators = standard_operators()

    def audit(workers: int) -> SatisfactionMatrix:
        return compute_matrix(
            operators,
            vocabulary,
            axioms,
            max_scenarios=max_scenarios,
            rng=rng,
            jobs=workers,
        )

    timing = time_paths(
        ("serial", lambda: audit(1)),
        ("parallel", lambda: audit(jobs)),
        checksum=matrix_checksum,
        what="standard-operator matrix",
    )
    stats = run_audit(
        operators,
        list(axioms),
        vocabulary,
        max_scenarios=max_scenarios,
        rng=rng,
        jobs=jobs,
    ).stats
    return {
        "key": f"atoms={atoms} jobs={jobs}",
        "atoms": atoms,
        "max_scenarios": max_scenarios,
        "jobs": jobs,
        "operators": [operator.name for operator in operators],
        "axioms": len(axioms),
        **timing,
        "engine_stats": {
            "chunks": stats.chunks,
            "scenarios": stats.scenarios,
            "key_hits": stats.key_hits,
            "key_misses": stats.key_misses,
            "result_hits": stats.result_hits,
            "result_misses": stats.result_misses,
        },
    }


def write_audit_snapshot(
    path: str = "BENCH_e7_audit.json",
    atoms: int = 2,
    max_scenarios: int = 5_000,
    job_counts: Sequence[int] = (4,),
    rng: int = 0,
    metrics_path: Optional[str] = None,
) -> dict:
    """Emit the E7 audit-engine snapshot (one row per worker count).

    ``metrics_path`` additionally writes an observability payload
    (``repro.obs`` metrics JSON) from one instrumented audit run *after*
    the timed rows, so the timings themselves stay uninstrumented.
    """
    payload = save_snapshot(
        path,
        "E7-audit",
        {
            "atoms": atoms,
            "max_scenarios": max_scenarios,
            "job_counts": job_counts,
            "rng": rng,
        },
        numpy=kernels.HAS_NUMPY,
        cpu_count=os.cpu_count(),
        rows=[
            measure_audit_speedup(atoms, max_scenarios, jobs, rng)
            for jobs in job_counts
        ],
    )
    if metrics_path is not None:
        vocabulary = Vocabulary([chr(ord("a") + index) for index in range(atoms)])
        with obs.use() as registry:
            run_audit(
                standard_operators(),
                list(ALL_AXIOMS),
                vocabulary,
                max_scenarios=max_scenarios,
                rng=rng,
                jobs=job_counts[0],
            )
            obs.write_metrics(metrics_path, registry)
    return payload
