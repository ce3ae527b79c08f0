"""Unit tests for the formula parser (repro.logic.parser)."""

import pytest
from hypothesis import given, settings

from repro.errors import ParseError, ReproError
from repro.logic.enumeration import equivalent
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import MAX_FORMULA_DEPTH, as_formula, parse
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    Xor,
    disjoin,
    formula_depth,
)

from _strategies import formulas


class TestBasics:
    def test_single_atom(self):
        assert parse("x") == Atom("x")

    def test_identifier_characters(self):
        assert parse("foo_Bar9") == Atom("foo_Bar9")

    def test_constants(self):
        assert parse("true") == TOP
        assert parse("false") == BOTTOM
        assert parse("TRUE") == TOP  # keywords are case-insensitive

    def test_whitespace_ignored(self):
        assert parse("  a   &\t b ") == Atom("a") & Atom("b")


class TestConnectives:
    def test_negation_symbols(self):
        assert parse("!a") == Not(Atom("a"))
        assert parse("~a") == Not(Atom("a"))
        assert parse("not a") == Not(Atom("a"))

    def test_double_negation_parses(self):
        assert parse("!!a") == Not(Not(Atom("a")))

    def test_and_variants(self):
        expected = Atom("a") & Atom("b")
        assert parse("a & b") == expected
        assert parse("a && b") == expected
        assert parse("a and b") == expected

    def test_or_variants(self):
        expected = Atom("a") | Atom("b")
        assert parse("a | b") == expected
        assert parse("a || b") == expected
        assert parse("a or b") == expected

    def test_implies(self):
        assert parse("a -> b") == Implies(Atom("a"), Atom("b"))

    def test_iff(self):
        assert parse("a <-> b") == Iff(Atom("a"), Atom("b"))

    def test_xor(self):
        assert parse("a ^ b") == Xor(Atom("a"), Atom("b"))


class TestPrecedence:
    def test_and_over_or(self):
        assert parse("a | b & c") == Atom("a") | (Atom("b") & Atom("c"))

    def test_not_over_and(self):
        assert parse("!a & b") == Not(Atom("a")) & Atom("b")

    def test_or_over_implies(self):
        assert parse("a | b -> c") == Implies(Atom("a") | Atom("b"), Atom("c"))

    def test_implies_over_iff(self):
        assert parse("a <-> b -> c") == Iff(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )

    def test_implies_right_associative(self):
        assert parse("a -> b -> c") == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )

    def test_xor_between_and_and_or(self):
        assert parse("a ^ b & c") == Xor(Atom("a"), Atom("b") & Atom("c"))
        assert parse("a | b ^ c") == Atom("a") | Xor(Atom("b"), Atom("c"))

    def test_parentheses_override(self):
        assert parse("(a | b) & c") == (Atom("a") | Atom("b")) & Atom("c")

    def test_chained_and_flattens(self):
        parsed = parse("a & b & c")
        assert isinstance(parsed, And)
        assert len(parsed.operands) == 3

    def test_chained_or_flattens(self):
        parsed = parse("a | b | c")
        assert isinstance(parsed, Or)
        assert len(parsed.operands) == 3


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(a & b")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("a b")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("a &")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("a @ b")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse("a & $")
        assert exc_info.value.position == 4

    def test_error_renders_marker(self):
        try:
            parse("a & $")
        except ParseError as error:
            assert "^" in str(error)

    def test_keyword_cannot_be_atom(self):
        with pytest.raises(ParseError):
            parse("not")  # negation with nothing to negate


DEEP_TEXTS = {
    "parentheses": "(" * 300 + "a" + ")" * 300,
    "negations": "!" * 1000 + "a",
    "xor-chain": " ^ ".join(["a"] * 1500),
    "implication-chain": " -> ".join(["a"] * 1500),
}


class TestNestingLimit:
    # a left-nested xor chain is built in a loop, so only as_formula stops it
    @pytest.mark.parametrize("key", ["parentheses", "negations", "implication-chain"])
    def test_too_deep_for_the_parser_is_a_parse_error(self, key):
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse(DEEP_TEXTS[key])

    @pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS.keys())
    def test_as_formula_refuses_too_deep_text(self, text):
        with pytest.raises(ReproError, match="nested too deeply"):
            as_formula(text)

    def test_as_formula_refuses_too_deep_formula_objects(self):
        formula = Atom("a")
        for _ in range(MAX_FORMULA_DEPTH):
            formula = Not(formula)
        with pytest.raises(ReproError, match="nested too deeply"):
            as_formula(formula)

    def test_limit_is_on_tree_depth(self):
        deepest = "!" * (MAX_FORMULA_DEPTH - 1) + "a"
        assert formula_depth(as_formula(deepest)) == MAX_FORMULA_DEPTH
        with pytest.raises(ReproError, match="nested too deeply"):
            as_formula("!" + deepest)

    def test_deepest_stored_formula_prints_and_reparses(self):
        # snapshots store formulas as printed text and the loader parses
        # them with parse(); a merge records the disjunction of sources
        # that each reach the cap, one level deeper than as_formula allows.
        # The printer parenthesizes every level of a left-nested xor chain.
        chain = as_formula(" ^ ".join(["a"] * MAX_FORMULA_DEPTH))
        record = disjoin([chain, Atom("b")])
        assert formula_depth(record) == MAX_FORMULA_DEPTH + 1
        assert parse(str(record)) == record


class TestAsFormula:
    def test_parses_strings_and_passes_formulas_through(self):
        formula = Atom("a") & Atom("b")
        assert as_formula("a & b") == formula
        assert as_formula(formula) is formula

    @pytest.mark.parametrize("value", [5, None, [], ["a"], {"x": 1}])
    def test_refuses_everything_else(self, value):
        with pytest.raises(ReproError, match="expected a formula string"):
            as_formula(value)


class TestRoundTrip:
    @given(formulas())
    def test_parse_of_str_is_equivalent(self, formula):
        """Printing then re-parsing preserves semantics (not necessarily
        syntax: printing may reassociate flattened connectives)."""
        vocabulary = Vocabulary(["a", "b", "c"])
        reparsed = parse(str(formula))
        assert equivalent(formula, reparsed, vocabulary)

    @settings(max_examples=500)
    @given(formulas())
    def test_parse_of_str_is_the_formula(self, formula):
        """Formula text round-trips node for node over every connective
        (the strategy flattens ``&`` and ``|`` as the parser does), and
        the reparsed formula prints the same text.  About one drawn
        formula in 50 nests an xor on the right, hence the examples."""
        text = str(formula)
        assert parse(text) == formula
        assert str(parse(text)) == text

    @pytest.mark.parametrize(
        "formula, text",
        [
            (Xor(Atom("a"), Xor(Atom("b"), Atom("c"))), "a ^ (b ^ c)"),
            (Xor(Xor(Atom("a"), Atom("b")), Atom("c")), "(a ^ b) ^ c"),
        ],
    )
    def test_nested_xor_keeps_its_parentheses(self, formula, text):
        assert str(formula) == text
        assert parse(text) == formula
