"""Faithful assignments (Katsuno–Mendelzon revision substrate).

A *faithful assignment* maps every knowledge base ψ to a total pre-order
``≤ψ`` such that (KM, quoted in Section 2 of the paper):

1. if ``I, J ∈ Mod(ψ)`` then ``I <ψ J`` does not hold;
2. if ``I ∈ Mod(ψ)`` and ``J ∉ Mod(ψ)`` then ``I <ψ J``;
3. ``ψ₁ ↔ ψ₂`` implies ``≤ψ₁ = ≤ψ₂``.

Revision operators satisfying the AGM/KM postulates are exactly those of
the form ``Mod(ψ ∘ μ) = Min(Mod(μ), ≤ψ)`` for a faithful assignment; the
library uses this to implement Dalal's operator and to *check* faithfulness
of arbitrary assignments in the test suite.

Assignments here are keyed by the **model set** of ψ, which makes
condition 3 hold by construction.
"""

from __future__ import annotations

from typing import Optional

from repro.distances.base import HammingDistance, InterpretationDistance
from repro.logic.semantics import ModelSet
from repro.orders.cache import DEFAULT_CACHE_SIZE, Assignment
from repro.orders.loyal import DistanceOrderBuilder

__all__ = [
    "FaithfulAssignment",
    "MinDistanceBuilder",
    "dalal_assignment",
    "check_faithful",
    "FaithfulnessViolation",
]


#: Faithful assignments share the one memoized implementation; the name
#: keeps the paper's vocabulary in signatures.
FaithfulAssignment = Assignment


class MinDistanceBuilder(DistanceOrderBuilder):
    """Dalal's key: distance to the nearest model of ψ."""

    kind = "min"
    empty_key: object = 0.0

    def _scalar_key(self, row):
        return lambda mask: min(row(mask))


def dalal_assignment(
    distance: Optional[InterpretationDistance] = None,
    vectorized: bool = True,
    cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
) -> FaithfulAssignment:
    """Dalal's faithful assignment: rank by distance to the nearest model.

    ``I ≤ψ J  iff  dist(ψ, I) ≤ dist(ψ, J)`` with
    ``dist(ψ, I) = min_{J ∈ Mod(ψ)} dist(I, J)``.  Models of ψ get rank 0,
    so faithfulness conditions 1–2 hold whenever ψ is satisfiable.
    """
    metric = distance if distance is not None else HammingDistance()
    return FaithfulAssignment(
        MinDistanceBuilder(metric, vectorized), name="dalal", cache_size=cache_size
    )


class FaithfulnessViolation:
    """A witnessed failure of one of the KM faithfulness conditions."""

    def __init__(self, condition: int, detail: str):
        self.condition = condition
        self.detail = detail

    def __repr__(self) -> str:
        return f"FaithfulnessViolation(condition={self.condition}, {self.detail})"


def check_faithful(
    assignment: FaithfulAssignment, knowledge_base: ModelSet
) -> Optional[FaithfulnessViolation]:
    """Check KM conditions 1–2 for one knowledge base.

    Condition 3 holds by construction (assignments are keyed by model set).
    Returns the first violation found, or ``None``.
    """
    order = assignment.order_for(knowledge_base)
    inside = knowledge_base.masks
    outside = [
        mask
        for mask in range(knowledge_base.vocabulary.interpretation_count)
        if mask not in knowledge_base
    ]
    for left in inside:
        for right in inside:
            if order.lt_masks(left, right):
                return FaithfulnessViolation(
                    1, f"models {left} < {right} inside Mod(ψ)"
                )
    for left in inside:
        for right in outside:
            if not order.lt_masks(left, right):
                return FaithfulnessViolation(
                    2, f"model {left} not strictly below non-model {right}"
                )
    return None
