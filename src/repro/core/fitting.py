"""Model-fitting operators ``ψ ▷ μ`` (Section 3 of the paper).

A model-fitting operator selects, from the models of the new information
μ, the interpretations *overall closest* to the whole set of models of ψ —
in contrast to revision (closest to the nearest ψ-model) and update
(closest per ψ-model, unioned).  Theorem 3.1 characterizes the A1–A8
operators as ``Mod(ψ ▷ μ) = Min(Mod(μ), ≤ψ)`` for loyal assignments of
total pre-orders; accordingly every fitting operator here is an
:class:`~repro.operators.base.AssignmentOperator` over a
:class:`~repro.orders.loyal.LoyalAssignment`.

Operators provided:

* :class:`ReveszFitting` — the paper's Example operator, ordering by
  ``odist(ψ, I) = max_{J ∈ Mod(ψ)} dist(I, J)``.  Reproduces Example 3.1
  exactly.  **Known defect** (rediscovered mechanically by this library's
  postulate harness): axiom A8 can fail when a max-tie hides a strict
  sub-preference; see :mod:`repro.orders.loyal` for the minimal
  counterexample.  The paper's claim that the operator satisfies A1–A8 is
  therefore too strong; it satisfies A1–A7 (and A6) but not A8.
* :class:`PriorityFitting` — the corrected existence witness for
  Theorem 3.1: lexicographic comparison of per-model distance vectors in a
  fixed global priority order.  Its assignment is provably loyal, so it
  satisfies all of A1–A8.
* :class:`SumFitting`, :class:`LeximaxFitting` — ablation variants
  (utilitarian total distance, and the GMax refinement of odist).  Neither
  is loyal; the E7 matrix shows where they break.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.distances.base import InterpretationDistance
from repro.operators.base import AssignmentOperator, OperatorFamily
from repro.orders.loyal import (
    LoyalAssignment,
    leximax_distance_assignment,
    max_distance_assignment,
    priority_distance_assignment,
    sum_distance_assignment,
)

__all__ = [
    "ModelFittingOperator",
    "ReveszFitting",
    "PriorityFitting",
    "SumFitting",
    "LeximaxFitting",
]


class ModelFittingOperator(AssignmentOperator):
    """A fitting operator built from an arbitrary loyal-assignment
    candidate.

    Whether the axioms A1–A8 actually hold depends on the assignment being
    loyal (Theorem 3.1); use :func:`repro.orders.loyal.check_loyal` or the
    postulate harness to audit a custom assignment.
    """

    def __init__(self, assignment: LoyalAssignment, name: Optional[str] = None):
        super().__init__(
            assignment,
            name=name if name is not None else f"fitting[{assignment.name}]",
            family=OperatorFamily.MODEL_FITTING,
            unsat_base="empty",
        )


class ReveszFitting(ModelFittingOperator):
    """The paper's concrete model-fitting operator (max Hamming distance).

    ``Mod(ψ ▷ μ) = argmin_{I ∈ Mod(μ)} max_{J ∈ Mod(ψ)} dist(I, J)`` and
    ``Mod(ψ ▷ μ) = ∅`` when ψ is unsatisfiable (axiom A2).
    """

    def __init__(
        self,
        distance: Optional[InterpretationDistance] = None,
    ):
        super().__init__(
            max_distance_assignment(distance),
            name="revesz-odist",
        )


class PriorityFitting(ModelFittingOperator):
    """Fitting by lexicographic per-model distance vectors — the provably
    loyal (hence fully A1–A8) operator.  The ``priority`` callable fixes
    the global order in which ψ's models are consulted; the default is
    bitmask order."""

    def __init__(
        self,
        distance: Optional[InterpretationDistance] = None,
        priority: Optional[Callable[[int], int]] = None,
    ):
        super().__init__(
            priority_distance_assignment(distance, priority),
            name="priority-lex",
        )


class SumFitting(ModelFittingOperator):
    """Fitting by total distance to all models of ψ (utilitarian reading).

    Coincides with the Section 4 weighted operator under unit weights —
    but only when the knowledge bases being disjoined share no models,
    because regular disjunction unions model sets while weighted
    disjunction adds weight functions.
    """

    def __init__(
        self,
        distance: Optional[InterpretationDistance] = None,
    ):
        super().__init__(
            sum_distance_assignment(distance),
            name="sum-fitting",
        )


class LeximaxFitting(ModelFittingOperator):
    """Fitting by the GMax order (sorted descending distance vectors)."""

    def __init__(
        self,
        distance: Optional[InterpretationDistance] = None,
    ):
        super().__init__(
            leximax_distance_assignment(distance),
            name="leximax-fitting",
        )
