"""The scalar reference ranking of the distance-ranked operators.

The product builders (:class:`~repro.orders.loyal.DistanceOrderBuilder`
and its subclasses, :class:`~repro.core.weighted.WdistOrderBuilder`) rank
lazily through the numpy batch kernels.  :class:`ReferenceRanking` reads
only the contract the batched engine and the symbolic tier read, a
builder's ``kind``, ``metric`` and ``ordered_models``, and ranks every
interpretation eagerly with plain ``metric.between_masks`` loops (the
exact Fraction ``wdist`` sum for the weighted builder).  It is the
baseline of the E9 and E4 speedup rows and the oracle of the
differential tests; nothing served, audited or run from the CLI uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.logic.interpretation import Interpretation
from repro.operators.base import AssignmentOperator
from repro.orders.cache import Assignment
from repro.orders.preorder import TotalPreorder

__all__ = ["ReferenceRanking", "reference_assignment", "reference_operator"]

#: One distance row's key, per builder ``kind``.
_ROW_KEYS: dict[str, Callable[[list], object]] = {
    "max": max,
    "min": min,
    "sum": sum,
    "leximax": lambda row: tuple(sorted(row, reverse=True)),
    "row": tuple,
}


@dataclass(frozen=True)
class ReferenceRanking:
    """A ψ ↦ ≤ψ builder that ranks like ``builder``, eagerly, in scalar
    Python."""

    builder: Any

    def __call__(self, knowledge_base) -> TotalPreorder:
        metric = self.builder.metric
        vocabulary = knowledge_base.vocabulary
        if self.builder.kind == "wdist":
            return TotalPreorder.from_key(
                vocabulary,
                lambda mask: knowledge_base.wdist(Interpretation(vocabulary, mask), metric),
            )
        if knowledge_base.is_empty:
            # All-equivalent: axioms A2 and R3 answer before Min is taken.
            return TotalPreorder.from_key(vocabulary, lambda mask: 0)
        columns = self.builder.ordered_models(knowledge_base)
        row_key = _ROW_KEYS[self.builder.kind]
        return TotalPreorder.from_key(
            vocabulary,
            lambda mask: row_key(
                [metric.between_masks(mask, column, vocabulary) for column in columns]
            ),
        )


def reference_assignment(assignment: Assignment) -> Assignment:
    """``assignment`` ranked by :class:`ReferenceRanking`, memoized alike."""
    return Assignment(ReferenceRanking(assignment.builder), assignment.name)


def reference_operator(operator: AssignmentOperator) -> AssignmentOperator:
    """``operator`` ranked by :class:`ReferenceRanking`: the same name,
    family and unsatisfiable-ψ branch."""
    return AssignmentOperator(
        reference_assignment(operator.assignment),
        name=operator.name,
        family=operator.family,
        unsat_base=operator.unsat_base,
    )
