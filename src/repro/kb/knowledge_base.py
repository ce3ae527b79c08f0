"""User-facing knowledge-base façade.

Wraps a formula, an explicit vocabulary 𝒯, and a choice of operators into
the object a database application would actually hold: parse once, then
``revise`` / ``update`` / ``arbitrate`` as information arrives, with every
change recorded in a provenance log.

Knowledge bases are immutable: each change returns a new object whose
history extends the old one, so earlier states remain inspectable (and
the log doubles as an audit trail for the jury-style scenarios in the
paper's introduction).

The state is a model set.  By Theorem 3.1 every answer is one,
``Mod(ψ ▷ μ) = Min(Mod(μ), ≤ψ)``, so a change builds its successor from
the operator's model set and renders no formula; ``to_formula`` writes
one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ModelFittingOperator, ReveszFitting
from repro.errors import ReproError, VocabularyError
from repro.logic.enumeration import form_formula, models
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import as_formula
from repro.logic.semantics import ModelSet
from repro.logic.syntax import Formula, disjoin
from repro.operators.base import TheoryChangeOperator
from repro.operators.revision import DalalRevision
from repro.operators.update import WinslettUpdate

__all__ = ["VERBS", "ChangeRecord", "KnowledgeBase", "ask_models", "verb_argument"]

FormulaLike = Union[str, Formula]

#: The Boolean verb table: every op a knowledge base answers, and the
#: argument it takes — one ``formula``, or a list of ``sources``.  A
#: caller that turns a name into a verb call (the server, the shell, the
#: soak harness, the load replay) looks the name up here.
VERBS: Mapping[str, str] = {
    "revise": "formula", "update": "formula", "fit": "formula", "arbitrate": "formula",
    "contract": "formula", "erase": "formula", "merge": "sources", "ask": "formula",
}


def verb_argument(verbs: Mapping[str, str], op: Any, family: str) -> str:
    """The argument ``op`` takes in the verb table ``verbs``; an op the
    table does not list, a name or any other JSON value, is a
    :class:`ReproError` naming the ones it does."""
    argument = verbs.get(op) if isinstance(op, str) else None
    if argument is None:
        raise ReproError(f"unknown op {op!r} for {family}; expected one of {list(verbs)}")
    return argument


def ask_models(model_set: ModelSet, query: FormulaLike) -> str:
    """The three-valued answer of a theory with the models ``model_set``:
    ``"yes"`` when it entails ``query``, ``"no"`` when it entails its
    negation, ``"unknown"`` otherwise."""
    query_models = models(as_formula(query), model_set.vocabulary)
    if model_set.issubset(query_models):
        return "yes"
    if model_set.intersection(query_models).is_empty:
        return "no"
    return "unknown"


@dataclass(frozen=True)
class ChangeRecord:
    """One entry of the provenance log."""

    operation: str
    operator: str
    incoming: Formula
    before: ModelSet
    after: ModelSet

    def __str__(self) -> str:
        return (
            f"{self.operation}[{self.operator}] with {self.incoming}: "
            f"{len(self.before)} -> {len(self.after)} models"
        )


class KnowledgeBase:
    """An immutable propositional knowledge base with theory-change verbs.

    The constructor takes user input: it parses the formula and the
    integrity constraints, checks their atoms against 𝒯 and enumerates
    their models.  A change's successor and a load come from
    ``_with_models`` instead, which reuses the vocabulary, operators,
    constraints and Mod(IC) it is called on.  Mod(IC) is held only when
    the constraints exclude some world: otherwise only the consensus of
    ``arbitrate`` and ``merge`` needs Mod(⊤), and it builds it.

    >>> kb = KnowledgeBase("A & B & (A & B -> C)", atoms=["A", "B", "C"])
    >>> kb.revise("!C")
    KnowledgeBase(A & B & !C, atoms=['A', 'B', 'C'])
    >>> kb.arbitrate("!C").satisfiable
    True
    """

    __slots__ = (
        "_vocabulary",
        "_models",
        "_history",
        "_revision",
        "_update",
        "_fitting",
        "_constraints",
        "_constraint_models",
    )

    def __init__(
        self,
        source: FormulaLike,
        atoms: Optional[Sequence[str]] = None,
        revision: Optional[TheoryChangeOperator] = None,
        update: Optional[TheoryChangeOperator] = None,
        fitting: Optional[ModelFittingOperator] = None,
        constraints: Optional[FormulaLike] = None,
    ):
        formula = as_formula(source)
        constraint_formula = (
            as_formula(constraints) if constraints is not None else None
        )
        if atoms is not None:
            vocabulary = Vocabulary(atoms)
        elif constraint_formula is not None:
            vocabulary = Vocabulary.from_formulas(formula, constraint_formula)
        else:
            vocabulary = Vocabulary.from_formulas(formula)
        missing = formula.atoms() - set(vocabulary.atoms)
        if constraint_formula is not None:
            missing |= constraint_formula.atoms() - set(vocabulary.atoms)
        if missing:
            raise VocabularyError(
                f"formula mentions atoms outside 𝒯: {sorted(missing)}"
            )
        self._vocabulary = vocabulary
        self._constraints = constraint_formula
        # Mod(IC), or None when it is Mod(⊤): no constraints, or valid ones.
        self._constraint_models: Optional[ModelSet] = None
        self._models = models(formula, vocabulary)
        if constraint_formula is not None:
            constraint_models = models(constraint_formula, vocabulary)
            if not constraint_models.is_universe:
                # Integrity constraints always hold: the theory lives
                # inside them.
                self._constraint_models = constraint_models
                self._models = self._models.intersection(constraint_models)
        self._history: tuple[ChangeRecord, ...] = ()
        self._revision = revision if revision is not None else DalalRevision()
        self._update = update if update is not None else WinslettUpdate()
        self._fitting = fitting if fitting is not None else ReveszFitting()

    def _with_models(
        self, model_set: ModelSet, history: tuple[ChangeRecord, ...]
    ) -> "KnowledgeBase":
        """This knowledge base's vocabulary, operators and integrity
        constraints holding ``model_set`` with the provenance ``history``.

        The constructor from a known model set (a change's successor, a
        load): nothing is parsed, enumerated or rendered, and Mod(IC) is
        reused.  A constrained contract or erase answers outside Mod(IC),
        so the state is ``model_set ∩ Mod(IC)``.
        """
        kb = KnowledgeBase.__new__(KnowledgeBase)
        kb._vocabulary = self._vocabulary
        kb._constraints = self._constraints
        kb._constraint_models = self._constraint_models
        kb._models = (
            model_set
            if self._constraint_models is None
            else model_set.intersection(self._constraint_models)
        )
        kb._history = history
        kb._revision = self._revision
        kb._update = self._update
        kb._fitting = self._fitting
        return kb

    # -- inspection ------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        """The universe of atoms 𝒯."""
        return self._vocabulary

    @property
    def model_set(self) -> ModelSet:
        """The models of the current theory."""
        return self._models

    @property
    def history(self) -> tuple[ChangeRecord, ...]:
        """Provenance log, oldest change first."""
        return self._history

    @property
    def satisfiable(self) -> bool:
        """Whether the knowledge base is consistent."""
        return not self._models.is_empty

    @property
    def constraints(self) -> Optional[Formula]:
        """The integrity constraints, or ``None`` when unconstrained."""
        return self._constraints

    def to_formula(self, minimize: bool = True) -> Formula:
        """A formula with exactly the current models.

        By default the near-minimal prime-implicant cover (compact and
        readable); pass ``minimize=False`` for the paper's canonical
        ``form(...)`` disjunction of complete cubes.
        """
        if minimize:
            from repro.logic.implicants import minimal_formula

            return minimal_formula(self._models)
        return form_formula(self._models)

    def entails(self, query: FormulaLike) -> bool:
        """Whether every model of the knowledge base satisfies ``query``."""
        query_models = models(as_formula(query), self._vocabulary)
        return self._models.issubset(query_models)

    def consistent_with(self, other: FormulaLike) -> bool:
        """Whether the knowledge base has a model satisfying ``other``."""
        other_models = models(as_formula(other), self._vocabulary)
        return not self._models.intersection(other_models).is_empty

    # -- theory change -----------------------------------------------------------

    def _record(
        self, operation: str, operator: str, incoming: Formula, after: ModelSet
    ) -> "KnowledgeBase":
        """The successor holding ``after``, one provenance record longer;
        operators and integrity constraints carry forward."""
        record = ChangeRecord(
            operation=operation,
            operator=operator,
            incoming=incoming,
            before=self._models,
            after=after,
        )
        return self._with_models(after, self._history + (record,))

    def _changed(
        self, operation: str, operator: TheoryChangeOperator, incoming: Formula
    ) -> "KnowledgeBase":
        incoming_models = models(incoming, self._vocabulary)
        if self._constraint_models is not None:
            # Integrity constraints restrict what the incoming information
            # may establish: change by μ ∧ IC (the GMR92-style reading).
            incoming_models = incoming_models.intersection(self._constraint_models)
        after = operator.apply_models(self._models, incoming_models)
        return self._record(operation, operator.name, incoming, after)

    def _consensus(
        self, operation: str, voices: Sequence[Formula], incoming: Formula
    ) -> "KnowledgeBase":
        """The current theory and ``voices`` as equal voices,
        ``(ψ ∨ φ₁ ∨ … ∨ φₖ) ▷ ⊤``: fitting against Mod(⊤) is exactly
        ``ArbitrationOperator(fitting).merge_models``.  Under integrity
        constraints the consensus is sought among the worlds they allow,
        ``(ψ ∨ φ₁ ∨ … ∨ φₖ) ▷ IC`` (the IC-merging reading of Δ_IC)."""
        union = self._models
        for formula in voices:
            union = union.union(models(formula, self._vocabulary))
        if self._constraint_models is None:
            target = ModelSet.universe(self._vocabulary)
            operator = ArbitrationOperator(self._fitting).name
        else:
            target = self._constraint_models
            operator = f"constrained-{self._fitting.name}"
        after = self._fitting.apply_models(union, target)
        return self._record(operation, operator, incoming, after)

    def revise(self, new_information: FormulaLike) -> "KnowledgeBase":
        """AGM/KM revision: the new information is more reliable."""
        return self._changed("revise", self._revision, as_formula(new_information))

    def update(self, new_information: FormulaLike) -> "KnowledgeBase":
        """KM update: the new information is more recent."""
        return self._changed("update", self._update, as_formula(new_information))

    def fit(self, new_information: FormulaLike) -> "KnowledgeBase":
        """Model-fitting ``ψ ▷ μ``: pick μ's models overall closest to ψ."""
        return self._changed("fit", self._fitting, as_formula(new_information))

    def arbitrate(self, new_information: FormulaLike) -> "KnowledgeBase":
        """Arbitration ``ψ Δ φ``: old and new are equal voices, the
        one-voice case of :meth:`merge`."""
        incoming = as_formula(new_information)
        return self._consensus("arbitrate", (incoming,), incoming)

    def merge(self, sources: Sequence[FormulaLike]) -> "KnowledgeBase":
        """N-ary consensus: the current theory is one voice among the
        sources, recorded as one ``merge`` step in the provenance log."""
        if not sources:
            raise ReproError("merge requires at least one source")
        parsed = [as_formula(source) for source in sources]
        return self._consensus("merge", parsed, disjoin(parsed))

    def contract(self, retracted: FormulaLike) -> "KnowledgeBase":
        """Stop believing ``retracted`` (Harper-identity contraction over
        the configured revision operator)."""
        from repro.operators.contraction import ContractionOperator

        operator = ContractionOperator(self._revision)
        return self._changed("contract", operator, as_formula(retracted))

    def erase(self, retracted: FormulaLike) -> "KnowledgeBase":
        """Make ``retracted`` no longer necessarily true (erasure over the
        configured update operator)."""
        from repro.operators.contraction import ErasureOperator

        operator = ErasureOperator(self._update)
        return self._changed("erase", operator, as_formula(retracted))

    # -- query answering -----------------------------------------------------

    def ask(self, query: FormulaLike) -> str:
        """Three-valued query answer (:func:`ask_models`)."""
        return ask_models(self._models, query)

    # -- dunder ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Semantic equality: same vocabulary and same models.

        Operators and integrity constraints are *configuration*, not
        content — two knowledge bases holding the same theory compare
        equal even if future changes would diverge.
        """
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return self._models == other._models

    def __hash__(self) -> int:
        return hash(self._models)

    def __repr__(self) -> str:
        return f"KnowledgeBase({self.to_formula()}, atoms={list(self._vocabulary.atoms)})"
