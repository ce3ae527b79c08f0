"""Baseline update operators: Winslett's PMA and Forbus's operator.

Updates (KM postulates U1–U8, Appendix A of the paper) treat the new
information as *more recent*: every model of the old knowledge base is
moved independently to its closest μ-models, and the results are unioned
(axiom U8 is exactly this per-model independence).

* Winslett's *possible models approach* compares symmetric differences by
  set inclusion (a genuinely partial order per model).
* Forbus's operator compares them by cardinality (Dalal's metric applied
  per model).

Theorem 3.2 uses the fact that Winslett's operator satisfies (U2) and (U8)
to conclude it cannot be a model-fitting operator; the E7 matrix verifies
this mechanically.
"""

from __future__ import annotations

from typing import Optional

from repro.distances import kernels
from repro.distances.base import HammingDistance, InterpretationDistance
from repro.logic.bitsets import (
    MAX_BITSET_ATOMS,
    bits_of_model_set,
    model_set_of_bits,
    pointwise_minimal,
)
from repro.logic.semantics import ModelSet
from repro.operators.base import OperatorFamily, TheoryChangeOperator

__all__ = ["WinslettUpdate", "ForbusUpdate", "pointwise_minimal_models"]


def pointwise_minimal_models(psi: ModelSet, mu: ModelSet) -> ModelSet:
    """``⋃_{J ∈ Mod(ψ)} Min(Mod(μ), ≤J)`` where ``I ≤J I'`` iff
    ``I Δ J ⊆ I' Δ J`` — Winslett's rule, also Borgida's conflict branch.

    Up to :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms this runs
    the packed-bitset kernel; above it, per model of ψ, the ⊆-minimal
    elements of the difference masks.
    """
    vocabulary = mu.vocabulary
    if vocabulary.size <= MAX_BITSET_ATOMS:
        bits = pointwise_minimal(
            bits_of_model_set(psi), bits_of_model_set(mu), vocabulary.size
        )
        return model_set_of_bits(vocabulary, bits)
    return _sparse_pointwise_minimal(psi, mu)


def _sparse_pointwise_minimal(psi: ModelSet, mu: ModelSet) -> ModelSet:
    """:func:`pointwise_minimal_models` on the model lists themselves."""
    chosen: set[int] = set()
    for psi_mask in psi.masks:
        minimal = kernels.minimal_subset_masks(
            mu_mask ^ psi_mask for mu_mask in mu.masks
        )
        chosen.update(diff ^ psi_mask for diff in minimal)
    return ModelSet(mu.vocabulary, chosen)


class WinslettUpdate(TheoryChangeOperator):
    """Winslett's PMA update, simplified to the propositional case.

    ``Mod(ψ ⋄ μ) = ⋃_{J ∈ Mod(ψ)} Min(Mod(μ), ≤J)`` where ``I ≤J I'`` iff
    ``I Δ J ⊆ I' Δ J``.
    """

    name = "winslett"
    family = OperatorFamily.UPDATE

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        return pointwise_minimal_models(psi, mu)


class ForbusUpdate(TheoryChangeOperator):
    """Forbus's update: per-model cardinality-minimal change.

    ``Mod(ψ ⋄ μ) = ⋃_{J ∈ Mod(ψ)} argmin_{I ∈ Mod(μ)} dist(I, J)``.
    """

    name = "forbus"
    family = OperatorFamily.UPDATE

    def __init__(self, distance: Optional[InterpretationDistance] = None):
        self._distance = distance if distance is not None else HammingDistance()

    @property
    def distance(self) -> InterpretationDistance:
        """The interpretation metric the per-model minimum ranks by."""
        return self._distance

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        vocabulary = mu.vocabulary
        chosen: set[int] = set()
        mu_masks = mu.masks
        for psi_mask in psi.masks:
            best: Optional[float] = None
            closest: list[int] = []
            for mu_mask in mu_masks:
                d = self._distance.between_masks(mu_mask, psi_mask, vocabulary)
                if best is None or d < best:
                    best = d
                    closest = [mu_mask]
                elif d == best:
                    closest.append(mu_mask)
            chosen.update(closest)
        return ModelSet(vocabulary, chosen)
