"""Unit tests for the enumeration engines and entailment helpers."""

import pytest
import hypothesis.strategies as st
from hypothesis import given

from repro.errors import VocabularyError
from repro.logic.enumeration import (
    DpllEngine,
    TruthTableEngine,
    cube_formula,
    default_engine,
    entails,
    equivalent,
    form_formula,
    is_satisfiable,
    is_valid,
    models,
)
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import parse
from repro.logic.semantics import ModelSet
from repro.logic.syntax import BOTTOM, TOP, Atom, disjoin, subformulas

from _strategies import formulas, model_sets

VOCAB = Vocabulary(["a", "b", "c"])


class TestEngines:
    @given(formulas())
    def test_engines_agree(self, formula):
        truth_table = TruthTableEngine().models(formula, VOCAB)
        dpll = DpllEngine().models(formula, VOCAB)
        assert truth_table == dpll

    def test_vocabulary_must_cover_formula(self):
        with pytest.raises(VocabularyError):
            TruthTableEngine().models(Atom("z"), VOCAB)
        with pytest.raises(VocabularyError):
            DpllEngine().models(Atom("z"), VOCAB)

    def test_default_engine_switches_on_size(self):
        small = Vocabulary(["a"])
        large = Vocabulary([f"p{i}" for i in range(23)])
        assert isinstance(default_engine(small), TruthTableEngine)
        assert isinstance(default_engine(large), DpllEngine)

    def test_dpll_engine_scales_past_truth_table_limit(self):
        """The truth-table engine refuses 30 atoms; DPLL handles them as
        long as the model set itself is small (here: fully constrained)."""
        large = Vocabulary([f"p{i}" for i in range(30)])
        full = parse(
            " & ".join(f"p{i}" if i % 2 == 0 else f"!p{i}" for i in range(30))
        )
        with pytest.raises(VocabularyError):
            TruthTableEngine().models(full, large)
        result = DpllEngine().models(full, large)
        assert len(result) == 1
        expected_mask = sum(1 << i for i in range(0, 30, 2))
        assert result.masks == (expected_mask,)


class TestModels:
    def test_vocabulary_defaults_to_formula_atoms(self):
        result = models(parse("x & y"))
        assert result.vocabulary.atoms == ("x", "y")
        assert len(result) == 1

    def test_explicit_vocabulary_multiplies_models(self):
        result = models(parse("a"), VOCAB)
        assert len(result) == 4  # free b, c

    def test_top_and_bottom(self):
        assert models(TOP, VOCAB).is_universe
        assert models(BOTTOM, VOCAB).is_empty


class TestPredicates:
    def test_is_satisfiable(self):
        assert is_satisfiable(parse("a & !b"), VOCAB)
        assert not is_satisfiable(parse("a & !a"), VOCAB)

    def test_is_valid(self):
        assert is_valid(parse("a | !a"), VOCAB)
        assert not is_valid(parse("a"), VOCAB)

    def test_entails(self):
        assert entails(parse("a & b"), parse("a"), VOCAB)
        assert not entails(parse("a"), parse("a & b"), VOCAB)

    def test_entails_infers_joint_vocabulary(self):
        assert entails(parse("x & y"), parse("x"))

    def test_equivalent(self):
        assert equivalent(parse("a -> b"), parse("!a | b"), VOCAB)
        assert not equivalent(parse("a"), parse("b"), VOCAB)

    @given(formulas(max_leaves=8))
    def test_entailment_reflexive(self, formula):
        assert entails(formula, formula, VOCAB)

    @given(formulas(max_leaves=8))
    def test_excluded_middle(self, formula):
        from repro.logic.syntax import Not, disjoin

        assert is_valid(disjoin([formula, Not(formula)]), VOCAB)


class TestFormFormula:
    def test_empty_is_bottom(self):
        assert form_formula(ModelSet.empty(VOCAB)) == BOTTOM

    def test_universe_is_top(self):
        assert form_formula(ModelSet.universe(VOCAB)) == TOP

    def test_cube_pins_single_interpretation(self):
        interp = VOCAB.interpretation({"a", "c"})
        cube = cube_formula(interp)
        result = models(cube, VOCAB)
        assert result.masks == (interp.mask,)

    def test_form_from_interpretations_iterable(self):
        interp = VOCAB.interpretation({"b"})
        formula = form_formula([interp])
        assert models(formula, VOCAB).masks == (interp.mask,)

    def test_form_of_empty_iterable_is_bottom(self):
        assert form_formula([]) == BOTTOM

    @given(model_sets(VOCAB))
    def test_round_trip_exact(self, ms):
        """form(I₁..Iₖ) has exactly the given models — the property the
        proof of Theorem 3.1 relies on."""
        assert models(form_formula(ms), VOCAB) == ms


def _cube_by_cube_form(model_set: ModelSet):
    """``form(...)`` as one ``cube_formula`` per model, then ``disjoin``."""
    if model_set.is_universe:
        return TOP
    return disjoin(cube_formula(interp) for interp in model_set)


def _assert_same_form(actual, expected) -> None:
    assert actual == expected
    assert [type(node) for node in subformulas(actual)] == [
        type(node) for node in subformulas(expected)
    ]
    assert str(actual) == str(expected)


@st.composite
def _wide_model_sets(draw):
    """Model sets over 4–12 atoms, sparse or (as a complement) dense."""
    size = draw(st.integers(min_value=4, max_value=12))
    vocabulary = Vocabulary([f"x{index}" for index in range(size)])
    total = vocabulary.interpretation_count
    masks = draw(st.sets(st.integers(min_value=0, max_value=total - 1), max_size=48))
    if draw(st.booleans()):
        masks = set(range(total)) - masks
    return ModelSet(vocabulary, masks)


class TestFormFormulaMatchesCubeByCube:
    """``form_formula`` builds the tree ``cube_formula`` and ``disjoin``
    build, node for node and character for character."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_every_model_set_up_to_three_atoms(self, size):
        vocabulary = Vocabulary(["a", "b", "c"][:size])
        total = vocabulary.interpretation_count
        for members in range(1 << total):
            model_set = ModelSet(
                vocabulary, [mask for mask in range(total) if members >> mask & 1]
            )
            _assert_same_form(form_formula(model_set), _cube_by_cube_form(model_set))

    @given(_wide_model_sets())
    def test_wide_model_sets(self, model_set):
        _assert_same_form(form_formula(model_set), _cube_by_cube_form(model_set))

    @given(_wide_model_sets())
    def test_iterable_of_interpretations(self, model_set):
        expected = _cube_by_cube_form(model_set)
        _assert_same_form(form_formula(list(reversed(list(model_set)))), expected)
        _assert_same_form(form_formula(iter(model_set)), expected)
