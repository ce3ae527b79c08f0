"""Model enumeration engines and entailment utilities.

Two interchangeable engines compute ``Mod(φ)`` over a vocabulary:

* :class:`TruthTableEngine` — materializes the numpy truth table.  Exact
  and extremely fast for vocabularies up to ~20 atoms; this is the default
  for the paper's scale.
* :class:`DpllEngine` — Tseitin-encodes the formula and enumerates models
  with the from-scratch DPLL solver plus blocking clauses, projected onto
  the vocabulary atoms.  Scales to larger vocabularies when the model set
  is sparse.

The module also provides the paper's ``form(I₁, …, Iₖ)`` — the canonical
formula whose models are exactly a given set of interpretations (used in
the proof of Theorem 3.1 and heavily by the postulate harness) — and the
standard satisfiability / entailment / equivalence predicates built on the
engines.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol

from repro.errors import VocabularyError
from repro.logic.cnf import tseitin
from repro.logic.interpretation import Interpretation, Vocabulary
from repro.logic.sat import enumerate_assignments, solve
from repro.logic.semantics import MAX_TRUTH_TABLE_ATOMS, ModelSet, truth_table
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Formula,
    Iff,
    Not,
    Or,
    conjoin,
)

__all__ = [
    "EnumerationEngine",
    "TruthTableEngine",
    "DpllEngine",
    "default_engine",
    "models",
    "is_satisfiable",
    "is_valid",
    "entails",
    "equivalent",
    "form_formula",
    "cube_formula",
]


class EnumerationEngine(Protocol):
    """Anything that can compute ``Mod(φ)`` over a vocabulary."""

    def models(self, formula: Formula, vocabulary: Vocabulary) -> ModelSet:
        """The set of models of ``formula`` over ``vocabulary``."""
        ...

    def is_satisfiable(self, formula: Formula, vocabulary: Vocabulary) -> bool:
        """Whether ``formula`` has at least one model."""
        ...


def _check_vocabulary_covers(formula: Formula, vocabulary: Vocabulary) -> None:
    missing = formula.atoms() - set(vocabulary.atoms)
    if missing:
        raise VocabularyError(
            f"formula mentions atoms outside the vocabulary: {sorted(missing)}"
        )


class TruthTableEngine:
    """Exact enumeration by materializing the full truth table (numpy)."""

    def models(self, formula: Formula, vocabulary: Vocabulary) -> ModelSet:
        _check_vocabulary_covers(formula, vocabulary)
        table = truth_table(formula, vocabulary)
        return ModelSet.from_truth_table(vocabulary, table)

    def is_satisfiable(self, formula: Formula, vocabulary: Vocabulary) -> bool:
        _check_vocabulary_covers(formula, vocabulary)
        return bool(truth_table(formula, vocabulary).any())


class DpllEngine:
    """Enumeration via Tseitin encoding + DPLL with blocking clauses."""

    def models(self, formula: Formula, vocabulary: Vocabulary) -> ModelSet:
        _check_vocabulary_covers(formula, vocabulary)
        problem = tseitin(formula, vocabulary)
        masks: list[int] = []
        for assignment in enumerate_assignments(
            problem.clauses,
            problem.num_variables,
            project_to=problem.atom_variables,
        ):
            mask = 0
            for i, variable in enumerate(problem.atom_variables):
                if assignment[variable]:
                    mask |= 1 << i
            masks.append(mask)
        return ModelSet(vocabulary, masks)

    def is_satisfiable(self, formula: Formula, vocabulary: Vocabulary) -> bool:
        _check_vocabulary_covers(formula, vocabulary)
        problem = tseitin(formula, vocabulary)
        return solve(problem.clauses, problem.num_variables) is not None


#: Module-level default engine instances (stateless, safe to share).
TRUTH_TABLE_ENGINE = TruthTableEngine()
DPLL_ENGINE = DpllEngine()


def default_engine(vocabulary: Vocabulary) -> EnumerationEngine:
    """Pick the engine appropriate for the vocabulary size."""
    if vocabulary.size <= MAX_TRUTH_TABLE_ATOMS:
        return TRUTH_TABLE_ENGINE
    return DPLL_ENGINE


def _resolve(
    formula: Formula, vocabulary: Optional[Vocabulary]
) -> Vocabulary:
    if vocabulary is not None:
        return vocabulary
    return Vocabulary.from_formulas(formula)


def models(
    formula: Formula,
    vocabulary: Optional[Vocabulary] = None,
    engine: Optional[EnumerationEngine] = None,
) -> ModelSet:
    """``Mod(formula)`` over ``vocabulary``.

    When ``vocabulary`` is omitted it defaults to the sorted atoms of the
    formula itself.  Note that theory-change semantics are sensitive to the
    vocabulary (an atom in 𝒯 that a formula does not mention still doubles
    its model count), so operator code always passes 𝒯 explicitly.
    """
    vocabulary = _resolve(formula, vocabulary)
    if engine is None:
        engine = default_engine(vocabulary)
    return engine.models(formula, vocabulary)


def is_satisfiable(
    formula: Formula,
    vocabulary: Optional[Vocabulary] = None,
    engine: Optional[EnumerationEngine] = None,
) -> bool:
    """Whether the formula has a model.  Vocabulary choice cannot affect
    satisfiability, only the model count."""
    vocabulary = _resolve(formula, vocabulary)
    if engine is None:
        engine = default_engine(vocabulary)
    return engine.is_satisfiable(formula, vocabulary)


def is_valid(
    formula: Formula,
    vocabulary: Optional[Vocabulary] = None,
    engine: Optional[EnumerationEngine] = None,
) -> bool:
    """Whether the formula holds in every interpretation."""
    return not is_satisfiable(Not(formula), vocabulary, engine)


def entails(
    premise: Formula,
    conclusion: Formula,
    vocabulary: Optional[Vocabulary] = None,
    engine: Optional[EnumerationEngine] = None,
) -> bool:
    """Whether every model of ``premise`` satisfies ``conclusion``."""
    if vocabulary is None:
        vocabulary = Vocabulary.from_formulas(premise, conclusion)
    return not is_satisfiable(conjoin([premise, Not(conclusion)]), vocabulary, engine)


def equivalent(
    left: Formula,
    right: Formula,
    vocabulary: Optional[Vocabulary] = None,
    engine: Optional[EnumerationEngine] = None,
) -> bool:
    """Whether the two formulas have the same models."""
    if vocabulary is None:
        vocabulary = Vocabulary.from_formulas(left, right)
    return is_valid(Iff(left, right), vocabulary, engine)


def cube_formula(interpretation: Interpretation) -> Formula:
    """The complete conjunction true exactly at ``interpretation``.

    Every vocabulary atom appears, positively or negatively, so the cube
    pins down a single interpretation — the building block of
    :func:`form_formula`.
    """
    literals: list[Formula] = []
    for name in interpretation.vocabulary.atoms:
        atom = Atom(name)
        literals.append(atom if interpretation.value(name) else Not(atom))
    return conjoin(literals)


def form_formula(model_set: ModelSet | Iterable[Interpretation]) -> Formula:
    """The paper's ``form(I₁, …, Iₖ)``: a formula with exactly the given
    models (over their shared vocabulary).

    An empty collection yields ``⊥`` and the full interpretation space
    yields ``⊤``.  Otherwise the result is in DNF, one complete cube per
    model in mask order: the tree ``disjoin(cube_formula(I) for I in
    model_set)`` builds, node for node.  Each atom's two literals are
    built once per call and shared by every cube, so a call costs one
    ``And`` per model rather than one lookup and one literal per atom.
    """
    if not isinstance(model_set, ModelSet):
        interps = list(model_set)
        if not interps:
            return BOTTOM
        model_set = ModelSet.of_interpretations(interps)
    if model_set.is_empty:
        return BOTTOM
    if model_set.is_universe:
        return TOP
    literals = [(Not(atom), atom) for atom in map(Atom, model_set.vocabulary.atoms)]
    if len(literals) == 1:
        # One atom: the lone model's cube is its lone literal.
        return literals[0][model_set.masks[0]]
    cubes = [
        And(tuple([pair[mask >> index & 1] for index, pair in enumerate(literals)]))
        for mask in model_set.masks
    ]
    return cubes[0] if len(cubes) == 1 else Or(tuple(cubes))
