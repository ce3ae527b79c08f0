"""Common protocol for theory-change operators.

Every operator in the library — revision, update, model-fitting, or
arbitration — implements one semantic core:

    ``apply_models(Mod(ψ), Mod(μ)) -> Mod(result)``

i.e. a function on model sets.  Because the core never sees formula syntax,
the irrelevance-of-syntax axioms (R4/U4/A4) hold by construction for all
built-in operators; the postulate harness still checks them through the
formula-level wrapper so that user-defined, syntax-sensitive operators are
audited honestly.

The formula-level :meth:`TheoryChangeOperator.apply` enumerates models over
an explicit vocabulary 𝒯 (defaulting to the union of the two formulas'
atoms), applies the core, and returns the paper's canonical
``form(I₁,…,Iₖ)`` formula of the result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Optional

from repro.errors import VocabularyError
from repro.logic.enumeration import EnumerationEngine, form_formula, models
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.logic.syntax import Formula
from repro.orders.preorder import TotalPreorder

__all__ = ["OperatorFamily", "TheoryChangeOperator", "AssignmentOperator"]


class OperatorFamily(Enum):
    """The family an operator *claims* to belong to.

    The claim is metadata, not a certificate: experiment E7 audits every
    operator against every axiom set and reports the matrix, which is how
    the odist operator's A8 defect surfaces.
    """

    REVISION = "revision"
    UPDATE = "update"
    MODEL_FITTING = "model-fitting"
    ARBITRATION = "arbitration"
    OTHER = "other"


class TheoryChangeOperator(ABC):
    """Base class for binary theory-change operators ``ψ * μ``."""

    #: Short identifier used in reports and benchmark tables.
    name: str = "operator"

    #: The family the operator is documented to belong to.
    family: OperatorFamily = OperatorFamily.OTHER

    @abstractmethod
    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        """The semantic core: model set of ``ψ * μ`` from the model sets of
        ψ and μ (over the same vocabulary)."""

    def _check_vocabularies(self, psi: ModelSet, mu: ModelSet) -> None:
        if psi.vocabulary != mu.vocabulary:
            raise VocabularyError(
                f"{self.name}: ψ and μ are over different vocabularies"
            )

    def apply(
        self,
        psi: Formula,
        mu: Formula,
        vocabulary: Optional[Vocabulary] = None,
        engine: Optional[EnumerationEngine] = None,
        impl: str = "auto",
    ) -> Formula:
        """Formula-level application: enumerate, change, re-express.

        The result is the canonical DNF ``form(...)`` of the output model
        set.  The vocabulary defaults to the union of atoms of ψ and μ;
        pass 𝒯 explicitly when the intended universe is larger (extra atoms
        change distances and therefore outcomes).

        ``impl`` selects the backend: ``"dense"`` enumerates all ``2^|T|``
        interpretations; ``"symbolic"`` runs on BDD level sets and returns
        a path-DNF formula instead of the canonical ``form(...)``
        (logically equivalent, different syntax); ``"auto"`` (default)
        picks symbolic once the vocabulary reaches
        :func:`repro.symbolic.symbolic_threshold` and the operator supports
        it, keeping small instances bit-identical to the historical output.
        """
        # The session core owns the dispatch rule; every layer (this
        # method, the postulate harness, the CLI, the serving layer)
        # resolves through the same definition.
        from repro.session.dispatch import resolve_backend

        if vocabulary is None:
            vocabulary = Vocabulary.from_formulas(psi, mu)
        backend = resolve_backend(self, vocabulary, impl, error=VocabularyError)
        if backend == "symbolic":
            from repro.symbolic import apply_symbolic

            # Forced symbolic: apply_symbolic raises for unsupported
            # operators; auto only resolves here when supported.
            return apply_symbolic(self, psi, mu, vocabulary)
        psi_models = models(psi, vocabulary, engine)
        mu_models = models(mu, vocabulary, engine)
        result = self.apply_models(psi_models, mu_models)
        return form_formula(result) if not result.is_empty else form_formula(
            ModelSet.empty(vocabulary)
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} ({self.family.value})>"


class AssignmentOperator(TheoryChangeOperator):
    """An operator induced by an assignment of total pre-orders:
    ``Mod(ψ * μ) = Min(Mod(μ), ≤ψ)``.

    This is the uniform shape of Katsuno–Mendelzon revision (faithful
    assignments) and of the paper's model-fitting (loyal assignments,
    Theorem 3.1).  The unsatisfiable-ψ case is family-dependent:
    model-fitting follows axiom A2 (the result is unsatisfiable), while
    AGM/KM revision follows R3 (any satisfiable μ must yield a satisfiable
    result, so an inconsistent base simply accepts μ).  Choose with
    ``unsat_base`` = ``"empty"`` (A2) or ``"accept-new"`` (R3).
    """

    def __init__(
        self,
        assignment,
        name: str,
        family: OperatorFamily,
        unsat_base: str = "empty",
    ):
        if unsat_base not in ("empty", "accept-new"):
            raise ValueError(f"unknown unsat_base policy {unsat_base!r}")
        self._assignment = assignment
        self._unsat_base = unsat_base
        self.name = name
        self.family = family

    @property
    def assignment(self):
        """The underlying ψ ↦ ≤ψ assignment."""
        return self._assignment

    @property
    def builder(self):
        """The product order builder behind the assignment, or ``None``
        for a hand-built assignment.  Its ``kind``, ``metric`` and
        ``ordered_models`` are what the batched engine, the symbolic tier
        and the context registry read."""
        return getattr(self._assignment, "builder", None)

    @property
    def unsat_base(self) -> str:
        """The unsatisfiable-ψ policy: ``"empty"`` (axiom A2) or
        ``"accept-new"`` (R3).  The audit engine's batched evaluator
        replicates this branch, so it is part of the public contract."""
        return self._unsat_base

    def order_for(self, psi: ModelSet) -> TotalPreorder:
        """Expose ``≤ψ`` (used by Theorem 3.1 round-trip tests)."""
        return self._assignment.order_for(psi)

    def cache_info(self):
        """Statistics of the assignment's pre-order cache, or ``None`` when
        the assignment does not expose one."""
        probe = getattr(self._assignment, "cache_info", None)
        return probe() if probe is not None else None

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        if psi.is_empty:
            if self._unsat_base == "empty":
                # Axiom A2: nothing can be fitted to an unsatisfiable base.
                return ModelSet.empty(psi.vocabulary)
            # R3: an inconsistent base accepts the new information whole.
            return mu
        order = self._assignment.order_for(psi)
        return order.minimal(mu)
