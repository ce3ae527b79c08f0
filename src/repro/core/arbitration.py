"""Arbitration ``ψ Δ φ`` (Section 3 of the paper).

Arbitration treats old and new information symmetrically — the new formula
is *one voice among equals* — and is defined from model-fitting as

    ``ψ Δ φ  =  (ψ ∨ φ) ▷ ⊤``

i.e. find the interpretations (over the whole space ℳ) that best fit the
union of both parties' models.  Commutativity is immediate from the
definition, and Corollary 3.1 characterizes arbitration operators through
loyal assignments applied to ``ψ ∨ φ``.

The module also provides n-ary *consensus merging* — the heterogeneous-
databases application the paper's introduction motivates: arbitrate the
disjunction of any number of equally trusted sources in one step.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import VocabularyError
from repro.logic.enumeration import EnumerationEngine, form_formula, models
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.logic.syntax import Formula
from repro.operators.base import OperatorFamily, TheoryChangeOperator
from repro.core.fitting import ModelFittingOperator, ReveszFitting

__all__ = ["ArbitrationOperator", "arbitrate", "merge"]


class ArbitrationOperator(TheoryChangeOperator):
    """The arbitration operator induced by a model-fitting operator.

    ``apply_models(Mod(ψ), Mod(φ)) = fitting(Mod(ψ) ∪ Mod(φ), ℳ)``.

    Note the asymmetry of roles disappears: both arguments are treated as
    knowledge, and the "new information" slot of the underlying fitting
    operator is the full interpretation space.
    """

    family = OperatorFamily.ARBITRATION

    def __init__(self, fitting: Optional[ModelFittingOperator] = None):
        self._fitting = fitting if fitting is not None else ReveszFitting()
        self.name = f"arbitration[{self._fitting.name}]"

    @property
    def fitting(self) -> ModelFittingOperator:
        """The underlying model-fitting operator ▷."""
        return self._fitting

    def apply_models(self, psi: ModelSet, phi: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, phi)
        return self.merge_models([psi, phi])

    def merge_models(self, sources: Sequence[ModelSet]) -> ModelSet:
        """N-ary consensus: fit ℳ to the union of all sources' models.

        :meth:`apply_models` is its two-source case; the n-ary form
        generalizes ``(ψ₁ ∨ … ∨ ψₖ) ▷ ⊤`` and stays order-independent
        (the union is a set operation).
        """
        if not sources:
            raise VocabularyError("merge requires at least one source")
        union = sources[0]
        for source in sources[1:]:
            union = union.union(source)
        universe = ModelSet.universe(union.vocabulary)
        return self._fitting.apply_models(union, universe)


def arbitrate(
    psi: Formula,
    phi: Formula,
    vocabulary: Optional[Vocabulary] = None,
    fitting: Optional[ModelFittingOperator] = None,
    engine: Optional[EnumerationEngine] = None,
) -> Formula:
    """Formula-level ``ψ Δ φ`` using the paper's odist fitting by default.

    The result is the canonical ``form(...)`` of the consensus models.
    Pass 𝒯 explicitly via ``vocabulary`` when atoms beyond those mentioned
    should participate (they affect distances, hence outcomes).
    """
    operator = ArbitrationOperator(fitting)
    return operator.apply(psi, phi, vocabulary, engine)


def merge(
    sources: Iterable[Formula],
    vocabulary: Optional[Vocabulary] = None,
    fitting: Optional[ModelFittingOperator] = None,
    engine: Optional[EnumerationEngine] = None,
) -> Formula:
    """N-ary consensus merge of equally trusted formulas.

    This is the paper's heterogeneous-database scenario: each source is one
    voice; the merge finds the interpretations that best fit all voices.
    """
    formulas = list(sources)
    if not formulas:
        raise VocabularyError("merge requires at least one source formula")
    if vocabulary is None:
        vocabulary = Vocabulary.from_formulas(*formulas)
    operator = ArbitrationOperator(fitting)
    model_sets = [models(formula, vocabulary, engine) for formula in formulas]
    return form_formula(operator.merge_models(model_sets))
