"""The operator × axiom satisfaction matrix (experiment E7).

The paper classifies operators by which postulate family they satisfy:
Dalal/Satoh/Borgida/Weber are revisions (satisfy R2), Winslett is an
update (satisfies U2 and U8), and the odist operator is claimed to be a
model-fitting operator.  This module computes the full matrix mechanically
— :func:`compute_matrix` is one call of :func:`repro.engine.pool.run_audit`,
the single entry for postulate sweeps — and renders it as the table the
paper never printed, including the cells where the mechanical audit
disagrees with the paper's claims (the odist operator's A8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.logic.interpretation import Vocabulary
from repro.operators.base import TheoryChangeOperator
from repro.postulates.axioms import (
    ALL_AXIOMS,
    FITTING_AXIOMS,
    REVISION_AXIOMS,
    UPDATE_AXIOMS,
    Axiom,
)
from repro.postulates.counterexample import CheckResult

__all__ = ["SatisfactionMatrix", "compute_matrix", "render_matrix"]


@dataclass(frozen=True)
class SatisfactionMatrix:
    """Results of auditing several operators against several axioms.

    ``results[op_name][axiom_name]`` is the full :class:`CheckResult`.
    """

    operators: tuple[str, ...]
    axioms: tuple[str, ...]
    results: Mapping[str, Mapping[str, CheckResult]]
    vocabulary_size: int

    def holds(self, operator: str, axiom: str) -> bool:
        """Whether the audit found the axiom to hold for the operator."""
        return self.results[operator][axiom].holds

    def family_verdict(self, operator: str) -> str:
        """Classify by which full axiom set the operator satisfies."""
        revision = all(self.holds(operator, a.name) for a in REVISION_AXIOMS)
        update = all(self.holds(operator, a.name) for a in UPDATE_AXIOMS)
        fitting = all(self.holds(operator, a.name) for a in FITTING_AXIOMS)
        families = [
            label
            for label, verdict in (
                ("revision", revision),
                ("update", update),
                ("model-fitting", fitting),
            )
            if verdict
        ]
        return "+".join(families) if families else "none"


def compute_matrix(
    operators: Sequence[TheoryChangeOperator],
    vocabulary: Vocabulary,
    axioms: Sequence[Axiom] = ALL_AXIOMS,
    max_scenarios: int = 20_000,
    rng: int | random.Random = 0,
    jobs: int = 1,
    chunk_timeout: float | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    shm: bool | None = None,
    journal_dir: str | None = None,
    resume: bool = False,
    impl: str = "dense",
) -> SatisfactionMatrix:
    """Audit every operator against every axiom: one
    :func:`repro.engine.pool.run_audit` call, which refuses whatever does
    not apply.

    Over a two-atom vocabulary the two-role axioms are exhaustive (256
    scenarios) and three-role axioms exhaust 4096 scenarios, so the matrix
    is a proof for |𝒯| = 2 and strong evidence beyond.

    ``jobs > 1`` runs the whole sweep through the parallel audit engine —
    one process pool, one operator-roster shipment, batched chunk
    evaluation — with results identical to the in-process loop.
    ``chunk_timeout`` / ``max_retries`` configure the engine's resilience
    ladder, ``shm`` its zero-copy arena, and ``journal_dir`` / ``resume``
    its chunk journal.  ``impl="symbolic"`` audits on BDD level sets:
    cell-identical to dense up to 16 atoms, and the only mode feasible at
    30+.
    """
    from repro.engine.pool import run_audit

    outcome = run_audit(
        operators,
        axioms,
        vocabulary,
        max_scenarios=max_scenarios,
        rng=rng,
        jobs=jobs,
        chunk_timeout=chunk_timeout,
        max_retries=max_retries,
        shm=shm,
        journal_dir=journal_dir,
        resume=resume,
        impl=impl,
    )
    return SatisfactionMatrix(
        operators=tuple(op.name for op in operators),
        axioms=tuple(a.name for a in axioms),
        results=outcome.results,
        vocabulary_size=vocabulary.size,
    )


def render_matrix(matrix: SatisfactionMatrix, mark_sampled: bool = True) -> str:
    """Plain-text table: one row per operator, one column per axiom.

    ``✓``/``✗`` for hold/fail; a trailing ``?`` marks sampled (non-
    exhaustive) verdicts.  The last column is the derived family verdict.
    """
    width = max(len(name) for name in matrix.operators) + 2
    header = "operator".ljust(width) + " ".join(
        axiom.rjust(3) for axiom in matrix.axioms
    ) + "  family"
    lines = [header, "-" * len(header)]
    for operator in matrix.operators:
        cells = []
        for axiom in matrix.axioms:
            result = matrix.results[operator][axiom]
            mark = "✓" if result.holds else "✗"
            if mark_sampled and not result.exhaustive:
                mark += "?"
            cells.append(mark.rjust(3))
        verdict = matrix.family_verdict(operator)
        lines.append(operator.ljust(width) + " ".join(cells) + f"  {verdict}")
    return "\n".join(lines)
