"""Symbolic-backend benchmark: crossover against dense + 30-atom queries.

Two series, snapshotted to ``BENCH_symbolic.json``:

* ``crossover`` — the postulate matrix computed twice on identical seeded
  workloads, ``impl="dense"`` vs ``impl="symbolic"``, over a ladder of
  vocabulary sizes.  Checksum equality is *enforced* (the two backends
  must produce cell-identical matrices — verdicts, scenario counts, and
  first counterexamples); the speedup column records where the BDD walk
  overtakes dense enumeration.
* ``query30`` — per-query latency of symbolic ``apply_models`` at 30
  atoms, where the dense backend cannot run at all.  There is no dense
  side to divide by, so ``speedup`` is pinned at 1.0 and the row's value
  is its *checksum*: model counts and minimal witnesses of every seeded
  query, digested — any drift is a correctness bug in the symbolic
  kernels, and the perf-trajectory gate fails on it.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Optional, Sequence

from repro.bench.audit_speedup import matrix_checksum
from repro.bench.experiments import standard_operators
from repro.bench.trajectory import save_snapshot, time_paths
from repro.logic.bdd import manager_for
from repro.logic.interpretation import Vocabulary
from repro.logic.random_formulas import random_formula
from repro.postulates.axioms import Axiom, axiom_by_name
from repro.postulates.matrix import SatisfactionMatrix, compute_matrix

__all__ = [
    "CROSSOVER_AXIOM_NAMES",
    "measure_crossover",
    "measure_query30",
    "write_symbolic_snapshot",
]

#: Crossover rows audit a role-count-diverse axiom subset (two two-role
#: revision/update axioms plus a three-role arbitration axiom) so the
#: ladder stays minutes, not hours, at the dense end.
CROSSOVER_AXIOM_NAMES = ("R1", "U8", "A5")

#: Query-latency rows at 30 atoms use this formula depth (mirrors the
#: symbolic harness's scenario sampler).
QUERY_FORMULA_DEPTH = 5


def _supported_operators():
    from repro.symbolic import supports_symbolic

    return [op for op in standard_operators() if supports_symbolic(op)]


def measure_crossover(
    atoms: int,
    max_scenarios: int,
    rng: int = 0,
    axioms: Optional[Sequence[Axiom]] = None,
) -> dict:
    """One crossover row: dense vs symbolic matrix on identical scenarios.

    Raises :class:`ReproError` if the two backends disagree on any cell —
    checksum equality is the differential guarantee this benchmark exists
    to witness, not an optional extra.
    """
    vocabulary = Vocabulary([chr(ord("a") + index) for index in range(atoms)])
    operators = _supported_operators()
    chosen = (
        [axiom_by_name(name) for name in CROSSOVER_AXIOM_NAMES]
        if axioms is None
        else list(axioms)
    )

    def audit(impl: str) -> SatisfactionMatrix:
        return compute_matrix(
            operators,
            vocabulary,
            chosen,
            max_scenarios=max_scenarios,
            rng=rng,
            impl=impl,
        )

    timing = time_paths(
        ("dense", lambda: audit("dense")),
        ("symbolic", lambda: audit("symbolic")),
        checksum=matrix_checksum,
        what=f"matrix at {atoms} atoms",
    )
    return {
        "key": f"atoms={atoms}",
        "atoms": atoms,
        "max_scenarios": max_scenarios,
        "operators": [operator.name for operator in operators],
        "axioms": [axiom.name for axiom in chosen],
        **timing,
    }


def measure_query30(
    atoms: int = 30,
    queries: int = 20,
    rng: int = 0,
) -> list[dict]:
    """Per-operator symbolic query latency at ``atoms`` atoms.

    Each query applies the operator to a seeded random-formula (ψ, μ)
    pair; the row's checksum digests every result's exact model count and
    minimal witness, so the trajectory gate pins the *answers*, not just
    the latency.  ``speedup`` is a literal 1.0: no dense run exists to
    compare against at this size.
    """
    vocabulary = Vocabulary([f"x{index}" for index in range(atoms)])
    manager = manager_for(vocabulary)
    rows = []
    for operator in _supported_operators():
        from repro.symbolic import SymbolicModelSet, apply_models_symbolic

        generator = random.Random(rng)
        digest = hashlib.sha256()
        start = time.perf_counter()
        for _ in range(queries):
            psi = SymbolicModelSet(
                manager,
                manager.from_formula(
                    random_formula(vocabulary, QUERY_FORMULA_DEPTH, generator)
                ),
            )
            mu = SymbolicModelSet(
                manager,
                manager.from_formula(
                    random_formula(vocabulary, QUERY_FORMULA_DEPTH, generator)
                ),
            )
            result = apply_models_symbolic(operator, psi, mu)
            digest.update(
                f"{result.count()}:{result.witness()};".encode("ascii")
            )
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "key": f"atoms={atoms} operator={operator.name}",
                "atoms": atoms,
                "operator": operator.name,
                "queries": queries,
                "seconds": elapsed,
                "per_query_seconds": elapsed / queries if queries else 0.0,
                "speedup": 1.0,
                "checksum": digest.hexdigest(),
            }
        )
    return rows


def write_symbolic_snapshot(
    path: str = "BENCH_symbolic.json",
    crossover: Sequence[tuple[int, int]] = (
        (4, 120),
        (6, 120),
        (8, 60),
        (10, 24),
        (12, 8),
    ),
    query_atoms: int = 30,
    queries: int = 20,
    rng: int = 0,
) -> dict:
    """Emit the symbolic-backend snapshot.

    ``crossover`` is a ladder of ``(atoms, max_scenarios)`` pairs — the
    scenario budget shrinks as the dense side's per-scenario cost grows,
    keeping the whole snapshot minutes.
    """
    return save_snapshot(
        path,
        "symbolic",
        {
            "crossover": crossover,
            "query_atoms": query_atoms,
            "queries": queries,
            "rng": rng,
        },
        crossover=[
            measure_crossover(atoms, max_scenarios, rng)
            for atoms, max_scenarios in crossover
        ],
        query30=measure_query30(query_atoms, queries, rng),
    )
