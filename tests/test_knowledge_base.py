"""Unit tests for the KnowledgeBase façade."""

import pytest

from repro.core.fitting import PriorityFitting
from repro.errors import VocabularyError
from repro.kb.knowledge_base import KnowledgeBase
from repro.logic.enumeration import equivalent, form_formula, models
from repro.logic.parser import parse
from repro.logic.syntax import disjoin
from repro.operators.revision import SatohRevision
from repro.operators.update import ForbusUpdate


class TestConstruction:
    def test_from_string(self):
        kb = KnowledgeBase("a & b")
        assert kb.satisfiable
        assert kb.vocabulary.atoms == ("a", "b")

    def test_from_formula(self):
        kb = KnowledgeBase(parse("a | b"))
        assert len(kb.model_set) == 3

    def test_explicit_atoms_extend_universe(self):
        kb = KnowledgeBase("a", atoms=["a", "b", "c"])
        assert len(kb.model_set) == 4  # b, c free

    def test_atoms_must_cover_formula(self):
        with pytest.raises(VocabularyError):
            KnowledgeBase("a & z", atoms=["a"])

    def test_unsatisfiable_kb(self):
        kb = KnowledgeBase("a & !a")
        assert not kb.satisfiable


class TestQueries:
    def test_entails(self):
        kb = KnowledgeBase("a & b")
        assert kb.entails("a")
        assert kb.entails(parse("a | b"))
        assert not kb.entails("!a")

    def test_consistent_with(self):
        kb = KnowledgeBase("a | b")
        assert kb.consistent_with("a & !b")
        assert not kb.consistent_with("!a & !b")

    def test_to_formula_is_equivalent_to_source(self):
        kb = KnowledgeBase("a -> b", atoms=["a", "b"])
        assert equivalent(kb.to_formula(), parse("a -> b"), kb.vocabulary)


class TestChanges:
    def test_revise_consistent_adds(self):
        kb = KnowledgeBase("a", atoms=["a", "b"]).revise("b")
        assert kb.entails("a & b")

    def test_revise_inconsistent_minimal_change(self):
        kb = KnowledgeBase("a & b").revise("!a")
        assert kb.entails("!a & b")

    def test_update_per_model(self):
        kb = KnowledgeBase("(a & !b) | (!a & b)").update("a")
        assert kb.entails("a")
        assert kb.consistent_with("b")  # the magazine survives

    def test_fit_uses_odist(self):
        kb = KnowledgeBase(
            "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)", atoms=["S", "D", "Q"]
        )
        fitted = kb.fit("(!S & D & !Q) | (S & D & !Q)")
        assert fitted.entails("S & D & !Q")

    def test_arbitrate_is_commutative_semantically(self):
        left = KnowledgeBase("a & b", atoms=["a", "b"]).arbitrate("!a & !b")
        right = KnowledgeBase("!a & !b", atoms=["a", "b"]).arbitrate("a & b")
        assert left.model_set == right.model_set

    def test_changes_are_pure(self):
        original = KnowledgeBase("a & b")
        original.revise("!a")
        assert original.entails("a & b")  # untouched

    def test_custom_fitting_operator(self):
        kb = KnowledgeBase("a & b", fitting=PriorityFitting())
        changed = kb.arbitrate("!a & !b")
        assert changed.satisfiable

    def test_change_keeps_vocabulary(self):
        kb = KnowledgeBase("a", atoms=["a", "b", "c"]).revise("b")
        assert kb.vocabulary.atoms == ("a", "b", "c")


class TestHistory:
    def test_history_accumulates(self):
        kb = KnowledgeBase("a & b").revise("!a").update("a | b")
        assert len(kb.history) == 2
        assert kb.history[0].operation == "revise"
        assert kb.history[1].operation == "update"

    def test_history_records_model_counts(self):
        kb = KnowledgeBase("a & b").arbitrate("!a & !b")
        record = kb.history[0]
        assert len(record.before) == 1
        assert len(record.after) == len(kb.model_set)
        assert "arbitrate" in str(record)

    def test_original_has_empty_history(self):
        assert KnowledgeBase("a").history == ()


class TestValueSemantics:
    def test_equality_by_models(self):
        assert KnowledgeBase("a & b") == KnowledgeBase("b & a")
        assert KnowledgeBase("a", atoms=["a", "b"]) != KnowledgeBase(
            "a & b", atoms=["a", "b"]
        )

    def test_hashable(self):
        assert len({KnowledgeBase("a & b"), KnowledgeBase("b & a")}) == 1

    def test_repr_mentions_atoms(self):
        assert "atoms=" in repr(KnowledgeBase("a"))


#: Every change verb with one argument over ``CHANGE_ATOMS``.
CHANGE_ATOMS = ["a", "b", "c"]
CHANGES = [
    ("revise", "!a | c"),
    ("update", "!b"),
    ("fit", "!a & c"),
    ("arbitrate", "!a & !b"),
    ("contract", "a"),
    ("erase", "b"),
    ("merge", ["!a", "c"]),
]
#: The operator each verb records with the default operators, without
#: and with integrity constraints.
DEFAULT_NAMES = {
    "revise": ("dalal", "dalal"),
    "update": ("winslett", "winslett"),
    "fit": ("revesz-odist", "revesz-odist"),
    "arbitrate": ("arbitration[revesz-odist]", "constrained-revesz-odist"),
    "contract": ("contraction[dalal]", "contraction[dalal]"),
    "erase": ("erasure[winslett]", "erasure[winslett]"),
    "merge": ("arbitration[revesz-odist]", "constrained-revesz-odist"),
}


def _incoming(argument):
    if isinstance(argument, list):
        return disjoin([parse(source) for source in argument])
    return parse(argument)


def _rebuilt(kb, **operators):
    """``kb``'s state through the public constructor: its ``form(...)``,
    its atoms and its constraints."""
    return KnowledgeBase(
        form_formula(kb.model_set),
        atoms=list(kb.vocabulary.atoms),
        constraints=kb.constraints,
        **operators,
    )


def _assert_same_state(kb, other):
    assert kb.model_set == other.model_set
    assert kb.vocabulary == other.vocabulary
    assert kb.constraints == other.constraints
    assert kb.satisfiable == other.satisfiable
    assert str(kb.to_formula()) == str(other.to_formula())
    assert str(kb.to_formula(minimize=False)) == str(other.to_formula(minimize=False))
    assert kb == other
    assert hash(kb) == hash(other)


@pytest.mark.parametrize("constraints", [None, "a -> b"], ids=["free", "constrained"])
@pytest.mark.parametrize("verb,argument", CHANGES, ids=[verb for verb, _ in CHANGES])
class TestSuccessor:
    """A change's successor is the knowledge base its model set names."""

    def test_successor_equals_the_rebuilt_state(self, verb, argument, constraints):
        parent = KnowledgeBase("a & b", atoms=CHANGE_ATOMS, constraints=constraints)
        successor = getattr(parent, verb)(argument)
        _assert_same_state(successor, _rebuilt(successor))

    def test_history_is_the_parents_plus_one_record(self, verb, argument, constraints):
        parent = KnowledgeBase("a & b", atoms=CHANGE_ATOMS, constraints=constraints)
        parent = parent.revise("a & !c")
        successor = getattr(parent, verb)(argument)
        assert successor.history[:-1] == parent.history
        record = successor.history[-1]
        assert record.operation == verb
        assert record.operator == DEFAULT_NAMES[verb][constraints is not None]
        assert record.incoming == _incoming(argument)
        assert record.before == parent.model_set
        mod_ic = models(parse(constraints or "true"), parent.vocabulary)
        assert record.after.intersection(mod_ic) == successor.model_set

    def test_second_change_uses_the_configured_operators(
        self, verb, argument, constraints
    ):
        operators = dict(
            revision=SatohRevision(), update=ForbusUpdate(), fitting=PriorityFitting()
        )
        parent = KnowledgeBase(
            "a & b", atoms=CHANGE_ATOMS, constraints=constraints, **operators
        )
        first = parent.update("!a | !b")
        second = getattr(first, verb)(argument)
        direct = getattr(_rebuilt(first, **operators), verb)(argument)
        _assert_same_state(second, direct)
        assert second.history[-1] == direct.history[-1]
        assert second.history[-1].operator != DEFAULT_NAMES[verb][constraints is not None]

    def test_no_change_renders_the_dnf(self, verb, argument, constraints, monkeypatch):
        parent = KnowledgeBase("a & b", atoms=CHANGE_ATOMS, constraints=constraints)
        expected = getattr(parent, verb)(argument).model_set

        def refuse(*_):
            raise AssertionError("a change rendered form(...)")

        monkeypatch.setattr("repro.kb.knowledge_base.form_formula", refuse)
        successor = getattr(parent, verb)(argument)
        assert successor.model_set == expected
        assert len(getattr(successor, verb)(argument).history) == 2
