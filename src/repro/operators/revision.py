"""Baseline revision operators: Dalal, Satoh, Borgida, and Weber.

Section 1 of the paper cites these as concrete theory-change proposals,
and Theorem 3.2's discussion relies on Katsuno–Mendelzon's result that
each of them satisfies axiom (R2) — hence none of them can be a
model-fitting operator.  The library implements all four so the E7
postulate matrix can verify those classifications mechanically.

References (as cited in the paper):

* Dalal 1988 — cardinality-minimal change: accept the models of μ at
  minimum Hamming distance from ψ.
* Satoh 1988 — set-inclusion-minimal change: accept the models of μ whose
  symmetric difference with some model of ψ is ⊆-minimal *globally*.
* Borgida 1985 — if ψ ∧ μ is consistent take it; otherwise make a
  Winslett-style inclusion-minimal change per model of ψ.
* Weber 1986 — compute Satoh's minimal difference atoms, forget them, and
  conjoin with μ.
"""

from __future__ import annotations

from typing import Optional

from repro.distances import kernels
from repro.distances.base import InterpretationDistance
from repro.logic.semantics import ModelSet
from repro.operators.base import (
    AssignmentOperator,
    OperatorFamily,
    TheoryChangeOperator,
)
from repro.operators.update import pointwise_minimal_models
from repro.orders.faithful import dalal_assignment

__all__ = [
    "DalalRevision",
    "SatohRevision",
    "BorgidaRevision",
    "WeberRevision",
]


class DalalRevision(AssignmentOperator):
    """Dalal's revision: ``Mod(ψ ∘ μ) = Min(Mod(μ), ≤ψ)`` where
    ``I ≤ψ J iff dist(ψ, I) ≤ dist(ψ, J)`` and
    ``dist(ψ, I) = min_{J ∈ Mod(ψ)} dist(I, J)``.

    Section 2 of the paper walks through exactly this construction and
    notes that, by the KM characterization, it is a true revision operator
    (it satisfies R1–R6).
    """

    def __init__(
        self,
        distance: Optional[InterpretationDistance] = None,
    ):
        super().__init__(
            dalal_assignment(distance),
            name="dalal",
            family=OperatorFamily.REVISION,
            unsat_base="accept-new",
        )


def _minimal_diff_sets(diffs: set[int]) -> set[int]:
    """The ⊆-minimal elements of a set of difference bitmasks."""
    return kernels.minimal_subset_masks(diffs)


class SatohRevision(TheoryChangeOperator):
    """Satoh's revision: global set-inclusion-minimal change.

    Let ``Δ(I, J) = I Δ J`` (as an atom set, here a bitmask).  Collect
    ``{Δ(I, J) : I ∈ Mod(μ), J ∈ Mod(ψ)}``, keep its ⊆-minimal elements,
    and accept the models of μ that realize one of them.
    """

    name = "satoh"
    family = OperatorFamily.REVISION

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        if psi.is_empty:
            return mu
        if mu.is_empty:
            return mu
        diffs = kernels.pairwise_diffs(mu.masks, psi.masks)
        minimal = _minimal_diff_sets(diffs)
        chosen = [
            mu_mask
            for mu_mask in mu.masks
            if any((mu_mask ^ psi_mask) in minimal for psi_mask in psi.masks)
        ]
        return ModelSet(mu.vocabulary, chosen)


class BorgidaRevision(TheoryChangeOperator):
    """Borgida's revision.

    If ψ ∧ μ is consistent the result is ψ ∧ μ (this is what forces axiom
    R2).  Otherwise each model ``J`` of ψ is repaired independently to the
    models of μ with ⊆-minimal difference from ``J``, and the results are
    unioned — Winslett's update rule applied only in the inconsistent case.
    """

    name = "borgida"
    family = OperatorFamily.REVISION

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        if psi.is_empty:
            return mu
        both = psi.intersection(mu)
        if not both.is_empty:
            return both
        return pointwise_minimal_models(psi, mu)


class WeberRevision(TheoryChangeOperator):
    """Weber's revision.

    Compute Satoh's ⊆-minimal symmetric differences, take the union ``D``
    of their atoms, and accept every model of μ that agrees with some model
    of ψ on all atoms outside ``D`` (i.e. forget ``D`` in ψ, then conjoin
    with μ).
    """

    name = "weber"
    family = OperatorFamily.REVISION

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        if psi.is_empty:
            return mu
        if mu.is_empty:
            return mu
        diffs = kernels.pairwise_diffs(mu.masks, psi.masks)
        minimal = _minimal_diff_sets(diffs)
        forgotten = 0
        for diff in minimal:
            forgotten |= diff
        keep = ~forgotten
        agreeable = {psi_mask & keep for psi_mask in psi.masks}
        chosen = [
            mu_mask for mu_mask in mu.masks if (mu_mask & keep) in agreeable
        ]
        return ModelSet(mu.vocabulary, chosen)
