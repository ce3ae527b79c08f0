"""Unit tests for the formula AST (repro.logic.syntax)."""

import pytest
from hypothesis import given

from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Xor,
    atoms_of,
    conjoin,
    disjoin,
    formula_depth,
    formula_size,
    rename_atoms,
    subformulas,
    substitute,
)

from _strategies import formulas


class TestAtom:
    def test_name_stored(self):
        assert Atom("x").name == "x"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError):
            Atom(3)  # type: ignore[arg-type]

    def test_equality_is_structural(self):
        assert Atom("x") == Atom("x")
        assert Atom("x") != Atom("y")

    def test_hashable(self):
        assert len({Atom("x"), Atom("x"), Atom("y")}) == 2

    def test_no_children(self):
        assert Atom("x").children() == ()


class TestConstants:
    def test_singletons_compare_equal(self):
        assert Top() == TOP
        assert Bottom() == BOTTOM
        assert TOP != BOTTOM

    def test_render(self):
        assert str(TOP) == "true"
        assert str(BOTTOM) == "false"


class TestOperators:
    def test_and_builds_n_ary(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        formula = a & b & c
        assert isinstance(formula, And)
        assert formula.operands == (a, b, c)

    def test_or_builds_n_ary(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        formula = a | b | c
        assert isinstance(formula, Or)
        assert formula.operands == (a, b, c)

    def test_invert_builds_not(self):
        assert ~Atom("a") == Not(Atom("a"))

    def test_rshift_builds_implies(self):
        assert (Atom("a") >> Atom("b")) == Implies(Atom("a"), Atom("b"))

    def test_iff_and_xor_methods(self):
        a, b = Atom("a"), Atom("b")
        assert a.iff(b) == Iff(a, b)
        assert a.xor(b) == Xor(a, b)

    def test_and_requires_two_operands(self):
        with pytest.raises(ValueError):
            And((Atom("a"),))

    def test_or_requires_two_operands(self):
        with pytest.raises(ValueError):
            Or((Atom("a"),))

    def test_and_flattens_nested(self):
        a, b, c, d = (Atom(n) for n in "abcd")
        nested = And.of(And.of(a, b), And.of(c, d))
        assert nested.operands == (a, b, c, d)

    def test_mixed_connectives_do_not_flatten(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        formula = And.of(Or.of(a, b), c)
        assert formula.operands == (Or.of(a, b), c)


class TestConjoinDisjoin:
    def test_conjoin_empty_is_top(self):
        assert conjoin([]) == TOP

    def test_disjoin_empty_is_bottom(self):
        assert disjoin([]) == BOTTOM

    def test_singleton_returned_unchanged(self):
        assert conjoin([Atom("a")]) == Atom("a")
        assert disjoin([Atom("a")]) == Atom("a")

    def test_conjoin_flattens(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert conjoin([a & b, c]) == And.of(a, b, c)

    def test_type_error_on_non_formula(self):
        with pytest.raises(TypeError):
            conjoin([Atom("a"), "b"])  # type: ignore[list-item]


class TestRendering:
    def test_precedence_and_binds_tighter_than_or(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert str((a & b) | c) == "a & b | c"
        assert str(a & (b | c)) == "a & (b | c)"

    def test_implication_renders_right_associative(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert str(Implies(a, Implies(b, c))) == "a -> b -> c"
        assert str(Implies(Implies(a, b), c)) == "(a -> b) -> c"

    def test_negation_parenthesizes_compounds(self):
        a, b = Atom("a"), Atom("b")
        assert str(~(a & b)) == "!(a & b)"
        assert str(~a & b) == "!a & b"

    def test_iff_lowest_precedence(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert str(Iff(a, b | c)) == "a <-> b | c"


class TestTraversal:
    def test_subformulas_preorder(self):
        a, b = Atom("a"), Atom("b")
        formula = a & ~b
        nodes = list(subformulas(formula))
        assert nodes[0] == formula
        assert a in nodes and Not(b) in nodes and b in nodes

    def test_atoms_of(self):
        formula = (Atom("a") & Atom("b")) | ~Atom("a")
        assert atoms_of(formula) == frozenset({"a", "b"})

    def test_atoms_of_constant(self):
        assert atoms_of(TOP) == frozenset()

    def test_atoms_of_a_tree_deeper_than_the_recursion_limit(self):
        formula = Atom("a")
        for index in range(5000):
            formula = ~formula if index % 2 else formula | Atom(f"p{index % 7}")
        assert atoms_of(formula) == frozenset(
            {"a", "p0", "p2", "p4", "p6", "p1", "p3", "p5"}
        )

    @given(formulas(names=("a", "b", "c", "d", "e"), max_leaves=24))
    def test_atoms_of_equals_the_subformula_walk(self, formula):
        expected = frozenset(
            node.name for node in subformulas(formula) if isinstance(node, Atom)
        )
        assert atoms_of(formula) == expected

    def test_formula_size_counts_all_nodes(self):
        assert formula_size(Atom("a")) == 1
        assert formula_size(Atom("a") & Atom("b")) == 3

    def test_formula_depth(self):
        assert formula_depth(Atom("a")) == 1
        assert formula_depth(~(Atom("a") & Atom("b"))) == 3

    def test_formula_depth_of_a_tree_deeper_than_the_recursion_limit(self):
        formula = Atom("a")
        for _ in range(5000):
            formula = ~formula
        assert formula_depth(formula) == 5001


class TestSubstitution:
    def test_substitute_atom(self):
        result = substitute(Atom("a") & Atom("b"), {"a": ~Atom("b")})
        assert result == ~Atom("b") & Atom("b")

    def test_substitution_is_simultaneous(self):
        # a -> b and b -> a swap, not chain.
        result = substitute(Atom("a") & Atom("b"), {"a": Atom("b"), "b": Atom("a")})
        assert result == Atom("b") & Atom("a")

    def test_substitute_missing_atoms_untouched(self):
        formula = Atom("a") | Atom("c")
        assert substitute(formula, {"b": TOP}) == formula

    def test_rename_atoms(self):
        formula = Atom("a") >> Atom("b")
        assert rename_atoms(formula, {"a": "x"}) == Atom("x") >> Atom("b")

    @given(formulas())
    def test_identity_substitution_is_noop(self, formula):
        assert substitute(formula, {}) == formula


class TestHypothesisInvariants:
    @given(formulas())
    def test_every_formula_renders(self, formula):
        assert isinstance(str(formula), str)

    @given(formulas())
    def test_size_at_least_depth(self, formula):
        assert formula_size(formula) >= formula_depth(formula)

    @given(formulas())
    def test_formulas_hashable_and_self_equal(self, formula):
        assert formula == formula
        assert hash(formula) == hash(formula)
