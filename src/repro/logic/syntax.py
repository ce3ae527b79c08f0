"""Propositional formula abstract syntax.

The paper (Section 2) builds formulas from a finite set of propositional
terms using negation, conjunction, and disjunction.  For convenience the
library also provides implication, biconditional, exclusive-or, and the
truth constants; all of them are definable from the paper's core connectives
and the semantics in :mod:`repro.logic.semantics` treats them natively.

Formulas are immutable, hashable trees.  ``And`` and ``Or`` are *n-ary*
(their operands are stored as a tuple) which keeps large conjunctions flat
and cheap to traverse.  Python operators are overloaded for readability::

    >>> from repro.logic.syntax import Atom
    >>> a, b = Atom("a"), Atom("b")
    >>> str(a & ~b)
    'a & !b'
    >>> str(a >> b)
    'a -> b'

Structural equality is syntactic: ``a & b != b & a`` as *objects* even though
they are logically equivalent.  Logical equivalence lives in
:func:`repro.logic.semantics.equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "Formula",
    "Atom",
    "Top",
    "Bottom",
    "TOP",
    "BOTTOM",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Xor",
    "conjoin",
    "disjoin",
    "atoms_of",
    "subformulas",
    "substitute",
    "rename_atoms",
    "formula_size",
    "formula_depth",
]


class Formula:
    """Base class for all propositional formulas.

    Subclasses are frozen dataclasses; instances are immutable, hashable,
    and compare by structure.  Use ``&``, ``|``, ``~``, and ``>>`` to build
    larger formulas fluently.
    """

    __slots__ = ()

    # -- fluent construction -------------------------------------------------

    def __and__(self, other: "Formula") -> "And":
        if not isinstance(other, Formula):
            return NotImplemented
        return And.of(self, other)

    def __or__(self, other: "Formula") -> "Or":
        if not isinstance(other, Formula):
            return NotImplemented
        return Or.of(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Implies":
        if not isinstance(other, Formula):
            return NotImplemented
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Iff":
        """Biconditional ``self <-> other``."""
        return Iff(self, other)

    def xor(self, other: "Formula") -> "Xor":
        """Exclusive disjunction ``self ^ other``."""
        return Xor(self, other)

    # -- introspection -------------------------------------------------------

    def children(self) -> tuple["Formula", ...]:
        """The immediate subformulas, in syntactic order."""
        raise NotImplementedError

    def atoms(self) -> frozenset[str]:
        """The set of atom names occurring in this formula."""
        return atoms_of(self)

    # -- printing ------------------------------------------------------------

    _PRECEDENCE = 0  # overridden by subclasses; larger binds tighter

    def _render(self, parent_precedence: int) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._render(0)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    """A propositional term (variable).

    Atom names are arbitrary non-empty strings; the parser restricts them to
    identifier-like tokens but programmatic construction does not.
    """

    name: str

    _PRECEDENCE = 100

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"atom name must be a non-empty string, got {self.name!r}")

    def children(self) -> tuple[Formula, ...]:
        return ()

    def _render(self, parent_precedence: int) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True, slots=True)
class Top(Formula):
    """The formula that is true in every interpretation (⊤)."""

    _PRECEDENCE = 100

    def children(self) -> tuple[Formula, ...]:
        return ()

    def _render(self, parent_precedence: int) -> str:
        return "true"

    def __repr__(self) -> str:
        return "Top()"


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    """The formula that is false in every interpretation (⊥)."""

    _PRECEDENCE = 100

    def children(self) -> tuple[Formula, ...]:
        return ()

    def _render(self, parent_precedence: int) -> str:
        return "false"

    def __repr__(self) -> str:
        return "Bottom()"


#: Canonical instance of :class:`Top`.
TOP = Top()

#: Canonical instance of :class:`Bottom`.
BOTTOM = Bottom()


@dataclass(frozen=True, slots=True)
class Not(Formula):
    """Negation ``!child``."""

    child: Formula

    _PRECEDENCE = 90

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def _render(self, parent_precedence: int) -> str:
        inner = self.child._render(self._PRECEDENCE)
        return f"!{inner}"


def _flatten(cls: type, operands: Iterable[Formula]) -> tuple[Formula, ...]:
    """Flatten nested applications of the same n-ary connective."""
    flat: list[Formula] = []
    for operand in operands:
        if not isinstance(operand, Formula):
            raise TypeError(f"expected Formula, got {type(operand).__name__}")
        if isinstance(operand, cls):
            flat.extend(operand.operands)  # type: ignore[attr-defined]
        else:
            flat.append(operand)
    return tuple(flat)


@dataclass(frozen=True, slots=True)
class And(Formula):
    """N-ary conjunction.  ``And.of`` flattens nested conjunctions."""

    operands: tuple[Formula, ...]

    _PRECEDENCE = 60

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("And requires at least two operands; use conjoin() for fewer")

    @classmethod
    def of(cls, *operands: Formula) -> "And":
        """Build a flattened conjunction from two or more operands."""
        return cls(_flatten(cls, operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def _render(self, parent_precedence: int) -> str:
        body = " & ".join(op._render(self._PRECEDENCE) for op in self.operands)
        if parent_precedence > self._PRECEDENCE:
            return f"({body})"
        return body


@dataclass(frozen=True, slots=True)
class Or(Formula):
    """N-ary disjunction.  ``Or.of`` flattens nested disjunctions."""

    operands: tuple[Formula, ...]

    _PRECEDENCE = 50

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("Or requires at least two operands; use disjoin() for fewer")

    @classmethod
    def of(cls, *operands: Formula) -> "Or":
        """Build a flattened disjunction from two or more operands."""
        return cls(_flatten(cls, operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def _render(self, parent_precedence: int) -> str:
        body = " | ".join(op._render(self._PRECEDENCE) for op in self.operands)
        if parent_precedence > self._PRECEDENCE:
            return f"({body})"
        return body


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    """Material implication ``lhs -> rhs`` (right-associative in the parser)."""

    lhs: Formula
    rhs: Formula

    _PRECEDENCE = 30

    def children(self) -> tuple[Formula, ...]:
        return (self.lhs, self.rhs)

    def _render(self, parent_precedence: int) -> str:
        # Right-associative: the left operand needs strictly tighter binding.
        body = (
            f"{self.lhs._render(self._PRECEDENCE + 1)} -> "
            f"{self.rhs._render(self._PRECEDENCE)}"
        )
        if parent_precedence > self._PRECEDENCE:
            return f"({body})"
        return body


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    """Biconditional ``lhs <-> rhs``."""

    lhs: Formula
    rhs: Formula

    _PRECEDENCE = 20

    def children(self) -> tuple[Formula, ...]:
        return (self.lhs, self.rhs)

    def _render(self, parent_precedence: int) -> str:
        body = (
            f"{self.lhs._render(self._PRECEDENCE + 1)} <-> "
            f"{self.rhs._render(self._PRECEDENCE)}"
        )
        if parent_precedence > self._PRECEDENCE:
            return f"({body})"
        return body


@dataclass(frozen=True, slots=True)
class Xor(Formula):
    """Exclusive disjunction ``lhs ^ rhs``.

    Binds tighter than ``|`` but looser than ``&``, matching the parser.
    """

    lhs: Formula
    rhs: Formula

    _PRECEDENCE = 55

    def children(self) -> tuple[Formula, ...]:
        return (self.lhs, self.rhs)

    def _render(self, parent_precedence: int) -> str:
        body = (
            f"{self.lhs._render(self._PRECEDENCE + 1)} ^ "
            f"{self.rhs._render(self._PRECEDENCE)}"
        )
        if parent_precedence > self._PRECEDENCE:
            return f"({body})"
        return body


# -- convenience constructors -------------------------------------------------


def conjoin(operands: Iterable[Formula]) -> Formula:
    """Conjunction of any number of formulas.

    Empty input yields ``TOP`` (the neutral element of conjunction) and a
    single operand is returned unchanged, matching the paper's convention of
    taking the conjunction of a set of formulas as the knowledge base.
    """
    flat = _flatten(And, operands)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disjoin(operands: Iterable[Formula]) -> Formula:
    """Disjunction of any number of formulas; empty input yields ``BOTTOM``."""
    flat = _flatten(Or, operands)
    if not flat:
        return BOTTOM
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


# -- traversal ----------------------------------------------------------------


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield every subformula (including ``formula`` itself), pre-order."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def atoms_of(formula: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``formula``.

    One explicit-stack walk (no generator, no child reversal), so it also
    serves trees too deep to recurse into.
    """
    names: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        else:
            stack.extend(node.children())
    return frozenset(names)


def formula_size(formula: Formula) -> int:
    """Number of connective and atom nodes in the syntax tree."""
    return sum(1 for _ in subformulas(formula))


def formula_depth(formula: Formula) -> int:
    """Height of the syntax tree; atoms and constants have depth 1.

    Walks level by level rather than recursing, so it also measures trees
    too deep for the recursive printer and evaluator.
    """
    depth = 0
    level = [formula]
    while level:
        depth += 1
        level = [child for node in level for child in node.children()]
    return depth


def _rebuild(formula: Formula, new_children: tuple[Formula, ...]) -> Formula:
    """Reconstruct ``formula`` with replacement children."""
    if isinstance(formula, (Atom, Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(new_children[0])
    if isinstance(formula, And):
        return conjoin(new_children)
    if isinstance(formula, Or):
        return disjoin(new_children)
    if isinstance(formula, Implies):
        return Implies(new_children[0], new_children[1])
    if isinstance(formula, Iff):
        return Iff(new_children[0], new_children[1])
    if isinstance(formula, Xor):
        return Xor(new_children[0], new_children[1])
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def transform_bottom_up(
    formula: Formula, visit: Callable[[Formula], Formula]
) -> Formula:
    """Rebuild ``formula`` bottom-up, applying ``visit`` to every node.

    ``visit`` receives each node *after* its children have been transformed
    and returns the node to use in its place.  This is the workhorse behind
    substitution and the normal-form conversions.
    """
    children = formula.children()
    if children:
        new_children = tuple(transform_bottom_up(child, visit) for child in children)
        if new_children != children:
            formula = _rebuild(formula, new_children)
    return visit(formula)


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas according to ``mapping``.

    Substitution is simultaneous: replacements are not re-substituted.

    >>> from repro.logic.syntax import Atom, substitute
    >>> str(substitute(Atom("a") & Atom("b"), {"a": ~Atom("b")}))
    '!b & b'
    """

    def visit(node: Formula) -> Formula:
        if isinstance(node, Atom) and node.name in mapping:
            return mapping[node.name]
        return node

    return transform_bottom_up(formula, visit)


def rename_atoms(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename atoms; atoms not mentioned in ``mapping`` are kept."""
    return substitute(
        formula, {old: Atom(new) for old, new in mapping.items()}
    )
